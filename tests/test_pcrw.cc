#include "baselines/pcrw.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/path_matrix.h"
#include "test_util.h"

namespace hetesim {
namespace {

MetaPath Parse(const HinGraph& g, const char* spec) {
  return *MetaPath::Parse(g.schema(), spec);
}

TEST(Pcrw, MatrixEqualsReachProbability) {
  HinGraph g = testing::BuildFig4Graph();
  MetaPath apc = Parse(g, "APC");
  EXPECT_TRUE(PcrwMatrix(g, apc).ApproxEquals(
      ReachProbability(g, apc).value().ToDense(), 1e-12));
}

TEST(Pcrw, RowsAreDistributions) {
  HinGraph g = testing::RandomTripartite(7, 9, 6, 0.3, 81);
  DenseMatrix m = PcrwMatrix(g, Parse(g, "ABC"));
  for (Index i = 0; i < m.rows(); ++i) {
    double sum = 0.0;
    for (Index j = 0; j < m.cols(); ++j) {
      EXPECT_GE(m(i, j), 0.0);
      sum += m(i, j);
    }
    EXPECT_NEAR(sum, 1.0, 1e-12);
  }
}

TEST(Pcrw, KnownValuesOnFig4) {
  HinGraph g = testing::BuildFig4Graph();
  DenseMatrix m = PcrwMatrix(g, Parse(g, "APC"));
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);          // Tom -> KDD (p1, p2 both KDD)
  EXPECT_NEAR(m(1, 0), 2.0 / 3.0, 1e-12);  // Mary -> KDD (p2, p3 of her 3)
  EXPECT_DOUBLE_EQ(m(2, 1), 1.0);          // Bob -> SIGMOD (p4, p5 both SIGMOD)
}

TEST(Pcrw, IsAsymmetricAcrossDirections) {
  // The motivating deficiency (Tables 3-4): PCRW(a, c | P) differs from
  // PCRW(c, a | P^-1) in general, while HeteSim coincides.
  HinGraph g = testing::BuildFig4Graph();
  MetaPath apc = Parse(g, "APC");
  DenseMatrix forward = PcrwMatrix(g, apc);
  DenseMatrix backward = PcrwMatrix(g, apc.Reverse());
  // Tom -> KDD is 1.0, but KDD -> Tom shares KDD's mass among 3 papers and
  // their authors: strictly less than 1.
  EXPECT_DOUBLE_EQ(forward(0, 0), 1.0);
  EXPECT_LT(backward(0, 0), 1.0);
}

TEST(Pcrw, SingleSourceMatchesMatrix) {
  HinGraph g = testing::RandomTripartite(6, 8, 5, 0.35, 82);
  MetaPath abc = Parse(g, "ABC");
  DenseMatrix m = PcrwMatrix(g, abc);
  for (Index s = 0; s < m.rows(); ++s) {
    std::vector<double> row = *PcrwSingleSource(g, abc, s);
    for (Index j = 0; j < m.cols(); ++j) {
      EXPECT_NEAR(row[static_cast<size_t>(j)], m(s, j), 1e-12);
    }
  }
}

TEST(Pcrw, PairMatchesMatrix) {
  HinGraph g = testing::BuildFig4Graph();
  MetaPath apc = Parse(g, "APC");
  DenseMatrix m = PcrwMatrix(g, apc);
  for (Index a = 0; a < 3; ++a) {
    for (Index c = 0; c < 2; ++c) {
      EXPECT_NEAR(*PcrwPair(g, apc, a, c), m(a, c), 1e-12);
    }
  }
}

TEST(Pcrw, OutOfRangeErrors) {
  HinGraph g = testing::BuildFig4Graph();
  MetaPath apc = Parse(g, "APC");
  EXPECT_TRUE(PcrwSingleSource(g, apc, 99).status().IsOutOfRange());
  EXPECT_TRUE(PcrwPair(g, apc, 0, 99).status().IsOutOfRange());
  EXPECT_TRUE(PcrwPair(g, apc, 99, 0).status().IsOutOfRange());
}

}  // namespace
}  // namespace hetesim
