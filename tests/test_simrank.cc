#include "baselines/simrank.h"

#include <gtest/gtest.h>

#include "core/hetesim.h"
#include "test_util.h"

namespace hetesim {
namespace {

SparseMatrix PathGraph3() {
  // 0 -> 1 -> 2 (directed path).
  return SparseMatrix::FromTriplets(3, 3, {{0, 1, 1.0}, {1, 2, 1.0}});
}

/// SimRank over `adjacency` as the view of a one-type network.
DenseMatrix SimRankOn(const SparseMatrix& adjacency,
                      const SimRankOptions& options = {}) {
  HomogeneousView view;
  view.adjacency = adjacency;
  view.type_offset = {0, adjacency.rows()};
  return SimRankHeterogeneous(view, options);
}

TEST(SimRankHeterogeneous, DiagonalIsOne) {
  DenseMatrix s = SimRankOn(PathGraph3());
  for (Index i = 0; i < 3; ++i) EXPECT_DOUBLE_EQ(s(i, i), 1.0);
}

TEST(SimRankHeterogeneous, SymmetricResult) {
  SparseMatrix g = testing::RandomBipartiteAdjacency(8, 8, 0.3, 51);
  DenseMatrix s = SimRankOn(g);
  EXPECT_TRUE(s.ApproxEquals(s.Transpose(), 1e-12));
}

TEST(SimRankHeterogeneous, ValuesInUnitInterval) {
  SparseMatrix g = testing::RandomBipartiteAdjacency(10, 10, 0.25, 52);
  DenseMatrix s = SimRankOn(g);
  for (Index i = 0; i < s.rows(); ++i) {
    for (Index j = 0; j < s.cols(); ++j) {
      EXPECT_GE(s(i, j), 0.0);
      EXPECT_LE(s(i, j), 1.0 + 1e-12);
    }
  }
}

TEST(SimRankHeterogeneous, NoSharedInNeighborsNoFirstOrderSimilarity) {
  // In the 3-node path graph, nodes 1 and 2 have in-neighbor sets {0} and
  // {1}: SimRank(1,2) needs SimRank(0,1) which needs I(0) = {} -> 0.
  DenseMatrix s = SimRankOn(PathGraph3());
  EXPECT_DOUBLE_EQ(s(1, 2), 0.0);
  EXPECT_DOUBLE_EQ(s(0, 1), 0.0);
}

TEST(SimRankHeterogeneous, SharedInNeighborClassic) {
  // Two sinks fed by one source: s(1,2) = C after convergence.
  SparseMatrix g = SparseMatrix::FromTriplets(3, 3, {{0, 1, 1.0}, {0, 2, 1.0}});
  SimRankOptions options;
  options.decay = 0.8;
  DenseMatrix s = SimRankOn(g, options);
  EXPECT_NEAR(s(1, 2), 0.8, 1e-9);
}

TEST(SimRankHeterogeneous, DecayScalesSimilarity) {
  SparseMatrix g = testing::RandomBipartiteAdjacency(8, 8, 0.3, 53);
  SimRankOptions low;
  low.decay = 0.2;
  SimRankOptions high;
  high.decay = 0.9;
  DenseMatrix s_low = SimRankOn(g, low);
  DenseMatrix s_high = SimRankOn(g, high);
  for (Index i = 0; i < 8; ++i) {
    for (Index j = 0; j < 8; ++j) {
      if (i != j) {
        EXPECT_LE(s_low(i, j), s_high(i, j) + 1e-12);
      }
    }
  }
}

TEST(SimRankHeterogeneous, RunsOnCollapsedHin) {
  HinGraph g = testing::BuildFig4Graph();
  HomogeneousView view = BuildHomogeneousView(g);
  DenseMatrix s = SimRankHeterogeneous(view);
  EXPECT_EQ(s.rows(), view.TotalNodes());
  // Tom and Mary share paper p2 as an (undirected) neighbor.
  TypeId author = *g.schema().TypeByCode('A');
  EXPECT_GT(s(view.GlobalId(author, 0), view.GlobalId(author, 1)), 0.0);
}

TEST(BipartiteSimRankSeries, TermStructure) {
  SparseMatrix w = testing::RandomBipartiteAdjacency(6, 5, 0.4, 54);
  DenseMatrix depth1 = BipartiteSimRankSeries(w, 1);
  DenseMatrix depth3 = BipartiteSimRankSeries(w, 3);
  // Terms are non-negative, so the series is monotone in depth.
  for (Index i = 0; i < 6; ++i) {
    for (Index j = 0; j < 6; ++j) {
      EXPECT_LE(depth1(i, j), depth3(i, j) + 1e-12);
    }
  }
  EXPECT_TRUE(depth1.ApproxEquals(depth1.Transpose(), 1e-12));
  EXPECT_TRUE(depth3.ApproxEquals(depth3.Transpose(), 1e-12));
}

TEST(BipartiteSimRankSeries, BSideUsesTransposedWalk) {
  SparseMatrix w = testing::RandomBipartiteAdjacency(6, 5, 0.4, 55);
  DenseMatrix b_side = BipartiteSimRankSeries(w, 2, /*a_side=*/false);
  DenseMatrix a_side_of_transpose = BipartiteSimRankSeries(w.Transpose(), 2, true);
  EXPECT_TRUE(b_side.ApproxEquals(a_side_of_transpose, 1e-12));
}

TEST(Property5, SimRankSeriesEqualsSumOfUnnormalizedHeteSim) {
  // Property 5 of the paper: on a bipartite schema, the depth-k truncated
  // SimRank series equals the sum of unnormalized HeteSim over the paths
  // (R R^-1)^j, j = 1..k.
  HinGraph g = testing::BuildFig4Graph();
  RelationId writes = *g.schema().RelationByName("writes");
  HeteSimEngine engine(g);
  const SparseMatrix& w = g.Adjacency(writes);
  for (int depth : {1, 2, 3, 4}) {
    DenseMatrix series = BipartiteSimRankSeries(w, depth);
    for (Index a1 = 0; a1 < w.rows(); ++a1) {
      for (Index a2 = 0; a2 < w.rows(); ++a2) {
        EXPECT_NEAR(*engine.SimRankSeries(writes, a1, a2, depth), series(a1, a2),
                    1e-10)
            << "depth " << depth;
      }
    }
  }
}

TEST(Property5, HoldsOnRandomBipartiteGraphs) {
  for (uint64_t seed : {61u, 62u}) {
    HinGraphBuilder builder;
    TypeId a = *builder.AddObjectType("alpha");
    TypeId b = *builder.AddObjectType("beta");
    RelationId r = *builder.AddRelation("r", a, b);
    SparseMatrix w = testing::RandomBipartiteAdjacency(7, 6, 0.35, seed);
    builder.AddNodes(a, 7);
    builder.AddNodes(b, 6);
    for (Index i = 0; i < w.rows(); ++i) {
      auto indices = w.RowIndices(i);
      for (Index j : indices) EXPECT_TRUE(builder.AddEdge(r, i, j).ok());
    }
    HinGraph g = std::move(builder).Build();
    HeteSimEngine engine(g);
    DenseMatrix series = BipartiteSimRankSeries(g.Adjacency(r), 3);
    for (Index a1 = 0; a1 < 7; ++a1) {
      EXPECT_NEAR(*engine.SimRankSeries(r, a1, a1, 3), series(a1, a1), 1e-10);
      EXPECT_NEAR(*engine.SimRankSeries(r, a1, (a1 + 1) % 7, 3),
                  series(a1, (a1 + 1) % 7), 1e-10);
    }
  }
}

TEST(SimRankDeath, NonSquareAborts) {
  EXPECT_DEATH({ (void)SimRankOn(SparseMatrix(2, 3)); }, "CHECK failed");
}

}  // namespace
}  // namespace hetesim
