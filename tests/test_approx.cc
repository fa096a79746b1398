// Tests for the approximate (truncated) propagation of Section 4.6:
// dropping small reachable-probability entries keeps the frontier sparse
// at a bounded, controllable accuracy cost. `HeteSimOptions::truncation`
// is a relative per-hop threshold applied by `PropagateFrontier`.

#include <algorithm>
#include <cmath>
#include <functional>

#include <gtest/gtest.h>

#include "core/frontier.h"
#include "core/hetesim.h"
#include "matrix/ops.h"
#include "test_util.h"

namespace hetesim {
namespace {

/// The frontier of `source` through `chain` at `threshold`, as a dense row.
/// Also checks the frontier's invariants: strictly ascending indices and
/// no explicit zeros.
std::vector<double> Propagated(Index source,
                               const std::vector<SparseMatrix>& chain,
                               double threshold, double* dropped = nullptr) {
  const SparseVector u =
      *PropagateFrontier(source, chain, threshold, QueryContext::Background());
  EXPECT_EQ(std::adjacent_find(u.indices.begin(), u.indices.end(),
                               std::greater_equal<Index>()),
            u.indices.end());
  std::vector<double> dense(static_cast<size_t>(chain.back().cols()), 0.0);
  for (size_t i = 0; i < u.nnz(); ++i) {
    EXPECT_NE(u.values[i], 0.0);
    dense[static_cast<size_t>(u.indices[i])] = u.values[i];
  }
  if (dropped != nullptr) *dropped = u.dropped_mass;
  return dense;
}

std::vector<double> Indicator(size_t size, Index source) {
  std::vector<double> x(size, 0.0);
  x[static_cast<size_t>(source)] = 1.0;
  return x;
}

TEST(TruncatedChain, ZeroEpsilonIsExact) {
  // Bitwise: each hop adds contributions in ascending input order, the
  // term order of the dense chain.
  HinGraph g = testing::RandomTripartite(10, 12, 8, 0.3, 201);
  for (const char* spec : {"ABC", "ABCBA"}) {
    MetaPath path = *MetaPath::Parse(g.schema(), spec);
    std::vector<SparseMatrix> chain = TransitionChain(g, path);
    for (Index s = 0; s < 10; ++s) {
      double dropped = -1.0;
      EXPECT_EQ(Propagated(s, chain, 0.0, &dropped),
                VectorThroughChain(Indicator(10, s), chain))
          << spec << " source " << s;
      EXPECT_EQ(dropped, 0.0);
    }
  }
}

TEST(TruncatedChain, NegativeEpsilonIsExact) {
  std::vector<SparseMatrix> chain = {
      testing::RandomBipartiteAdjacency(5, 5, 0.5, 202).RowNormalized()};
  for (Index s = 0; s < 5; ++s) {
    EXPECT_EQ(Propagated(s, chain, -1.0),
              VectorThroughChain(Indicator(5, s), chain));
  }
}

TEST(TruncatedChain, DropsSmallEntries) {
  // One step spreading mass 0.999 / 0.001: a relative threshold of 0.01
  // (cutoff 0.00999) kills the tail and records its mass.
  SparseMatrix step = SparseMatrix::FromTriplets(
      1, 2, {{0, 0, 0.999}, {0, 1, 0.001}});
  double dropped = 0.0;
  std::vector<double> result = Propagated(0, {step}, 0.01, &dropped);
  EXPECT_EQ(result[0], 0.999);
  EXPECT_EQ(result[1], 0.0);
  EXPECT_EQ(dropped, 0.001);
}

TEST(TruncatedChain, ErrorBoundHolds) {
  // On row-stochastic chains every dropped unit of mass would have stayed
  // one unit through the remaining hops, so the L1 error of the truncated
  // frontier is at most the dropped mass it reports.
  HinGraph g = testing::RandomTripartite(20, 25, 15, 0.3, 203);
  MetaPath path = *MetaPath::Parse(g.schema(), "ABCBA");
  std::vector<SparseMatrix> chain = TransitionChain(g, path);
  for (double threshold : {1e-3, 1e-2, 0.1, 0.5}) {
    for (Index s = 0; s < 20; ++s) {
      std::vector<double> exact = VectorThroughChain(Indicator(20, s), chain);
      double dropped = 0.0;
      std::vector<double> approx = Propagated(s, chain, threshold, &dropped);
      double l1 = 0.0;
      for (size_t i = 0; i < exact.size(); ++i) {
        l1 += std::abs(exact[i] - approx[i]);
      }
      EXPECT_LE(l1, dropped + 1e-12)
          << "source " << s << " threshold " << threshold;
    }
  }
}

TEST(TruncatedEngine, ZeroTruncationMatchesDefault) {
  HinGraph g = testing::RandomTripartite(12, 14, 10, 0.3, 204);
  MetaPath path = *MetaPath::Parse(g.schema(), "ABCBA");
  HeteSimEngine exact(g);
  HeteSimOptions options;
  options.truncation = 0.0;
  HeteSimEngine configured(g, options);
  for (Index s = 0; s < 12; ++s) {
    EXPECT_EQ(*exact.ComputePair(path, s, s), *configured.ComputePair(path, s, s));
  }
}

TEST(TruncatedEngine, SmallEpsilonStaysClose) {
  HinGraph g = testing::RandomTripartite(25, 30, 20, 0.25, 205);
  MetaPath path = *MetaPath::Parse(g.schema(), "ABCBA");
  HeteSimEngine exact(g);
  HeteSimOptions options;
  options.truncation = 1e-4;
  HeteSimEngine approx(g, options);
  double max_error = 0.0;
  for (Index s = 0; s < 25; ++s) {
    std::vector<double> exact_scores = *exact.ComputeSingleSource(path, s);
    std::vector<double> approx_scores = *approx.ComputeSingleSource(path, s);
    for (size_t t = 0; t < exact_scores.size(); ++t) {
      max_error = std::max(max_error, std::abs(exact_scores[t] - approx_scores[t]));
    }
  }
  EXPECT_LT(max_error, 0.05);
  EXPECT_GE(max_error, 0.0);
}

TEST(TruncatedEngine, LargeEpsilonStillBounded) {
  // Even aggressive truncation keeps scores in [0, 1] (cosine of
  // non-negative vectors) and self-relevance high on symmetric paths.
  HinGraph g = testing::RandomTripartite(15, 18, 12, 0.3, 206);
  MetaPath path = *MetaPath::Parse(g.schema(), "ABA");
  HeteSimOptions options;
  options.truncation = 0.05;
  HeteSimEngine engine(g, options);
  for (Index s = 0; s < 15; ++s) {
    double score = *engine.ComputePair(path, s, s);
    EXPECT_GE(score, 0.0);
    EXPECT_LE(score, 1.0 + 1e-12);
  }
}

TEST(TruncatedEngine, PreservesTopRankingAtModerateEpsilon) {
  HinGraph g = testing::RandomTripartite(30, 40, 20, 0.2, 207);
  MetaPath path = *MetaPath::Parse(g.schema(), "ABC");
  HeteSimEngine exact(g);
  HeteSimOptions options;
  options.truncation = 1e-5;
  HeteSimEngine approx(g, options);
  std::vector<double> exact_scores = *exact.ComputeSingleSource(path, 0);
  std::vector<double> approx_scores = *approx.ComputeSingleSource(path, 0);
  // The argmax survives truncation this small.
  size_t exact_best = 0;
  size_t approx_best = 0;
  for (size_t t = 1; t < exact_scores.size(); ++t) {
    if (exact_scores[t] > exact_scores[exact_best]) exact_best = t;
    if (approx_scores[t] > approx_scores[approx_best]) approx_best = t;
  }
  EXPECT_EQ(exact_best, approx_best);
}

}  // namespace
}  // namespace hetesim
