#include "core/path_matrix.h"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "matrix/ops.h"
#include "test_util.h"

namespace hetesim {
namespace {

class PathMatrixTest : public ::testing::Test {
 protected:
  PathMatrixTest() : graph_(testing::BuildFig4Graph()) {}
  MetaPath Path(const char* spec) const {
    return *MetaPath::Parse(graph_.schema(), spec);
  }
  HinGraph graph_;
};

TEST_F(PathMatrixTest, TransitionChainShapes) {
  std::vector<SparseMatrix> chain = TransitionChain(graph_, Path("APC"));
  ASSERT_EQ(chain.size(), 2u);
  EXPECT_EQ(chain[0].rows(), 3);
  EXPECT_EQ(chain[0].cols(), 5);
  EXPECT_EQ(chain[1].rows(), 5);
  EXPECT_EQ(chain[1].cols(), 2);
}

TEST_F(PathMatrixTest, ReachProbabilityIsRowStochastic) {
  SparseMatrix pm = ReachProbability(graph_, Path("APC")).value();
  for (Index r = 0; r < pm.rows(); ++r) {
    EXPECT_NEAR(pm.RowSum(r), 1.0, 1e-12);
  }
}

TEST_F(PathMatrixTest, ReachProbabilityKnownValues) {
  // Tom's papers p1, p2 are both in KDD (default Fig-4 placement puts p3 in
  // KDD too, but Tom did not write p3): Tom reaches KDD w.p. 1.
  SparseMatrix pm = ReachProbability(graph_, Path("APC")).value();
  EXPECT_DOUBLE_EQ(pm.At(0, 0), 1.0);   // Tom -> KDD
  EXPECT_DOUBLE_EQ(pm.At(0, 1), 0.0);   // Tom -> SIGMOD
  // Mary: p2, p3 in KDD; p4 in SIGMOD -> 2/3 vs 1/3.
  EXPECT_NEAR(pm.At(1, 0), 2.0 / 3.0, 1e-12);
  EXPECT_NEAR(pm.At(1, 1), 1.0 / 3.0, 1e-12);
}

TEST_F(PathMatrixTest, ReachDistributionMatchesMatrixRow) {
  SparseMatrix pm = ReachProbability(graph_, Path("APC")).value();
  for (Index s = 0; s < 3; ++s) {
    std::vector<double> distribution = ReachDistribution(graph_, Path("APC"), s);
    std::vector<double> expected = pm.RowDense(s);
    ASSERT_EQ(distribution.size(), expected.size());
    for (size_t j = 0; j < expected.size(); ++j) {
      EXPECT_NEAR(distribution[j], expected[j], 1e-12);
    }
  }
}

TEST_F(PathMatrixTest, AtomicDecompositionReconstructsAdjacency) {
  // Property 1: R = R_O ∘ R_I, i.e. W_out * W_in == W exactly.
  RelationId writes = *graph_.schema().RelationByName("writes");
  AtomicDecomposition d = DecomposeAtomicRelation(graph_, {writes, true});
  EXPECT_EQ(d.num_instances, graph_.Adjacency(writes).NumNonZeros());
  EXPECT_TRUE(d.out.Multiply(d.in).ApproxEquals(graph_.Adjacency(writes), 1e-12));
}

TEST_F(PathMatrixTest, AtomicDecompositionBackwardStep) {
  RelationId writes = *graph_.schema().RelationByName("writes");
  AtomicDecomposition d = DecomposeAtomicRelation(graph_, {writes, false});
  EXPECT_TRUE(d.out.Multiply(d.in).ApproxEquals(
      graph_.AdjacencyTranspose(writes), 1e-12));
}

TEST_F(PathMatrixTest, AtomicDecompositionWeighted) {
  HinGraphBuilder builder;
  TypeId a = *builder.AddObjectType("alpha");
  TypeId b = *builder.AddObjectType("beta");
  RelationId r = *builder.AddRelation("r", a, b);
  builder.AddNode(a);
  builder.AddNode(b);
  EXPECT_TRUE(builder.AddEdge(r, 0, 0, 9.0).ok());
  HinGraph g = std::move(builder).Build();
  AtomicDecomposition d = DecomposeAtomicRelation(g, {r, true});
  // w(a,e) = w(e,b) = sqrt(9) = 3.
  EXPECT_DOUBLE_EQ(d.out.At(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(d.in.At(0, 0), 3.0);
  EXPECT_TRUE(d.out.Multiply(d.in).ApproxEquals(g.Adjacency(r), 1e-12));
}

TEST_F(PathMatrixTest, EachEdgeObjectHasOneSourceAndOneTarget) {
  RelationId writes = *graph_.schema().RelationByName("writes");
  AtomicDecomposition d = DecomposeAtomicRelation(graph_, {writes, true});
  SparseMatrix out_transpose = d.out.Transpose();
  for (Index e = 0; e < d.num_instances; ++e) {
    EXPECT_EQ(out_transpose.RowNnz(e), 1);
    EXPECT_EQ(d.in.RowNnz(e), 1);
  }
}

TEST_F(PathMatrixTest, EvenPathDecomposition) {
  PathDecomposition d = DecomposePath(graph_, Path("APCPA"));
  EXPECT_FALSE(d.edge_object_inserted);
  EXPECT_EQ(d.left_transitions.size(), 2u);
  EXPECT_EQ(d.right_transitions.size(), 2u);
  EXPECT_EQ(d.middle_dimension, 2);  // meets at conferences
  SparseMatrix left = LeftReachMatrix(d);
  SparseMatrix right = RightReachMatrix(d);
  EXPECT_EQ(left.rows(), 3);
  EXPECT_EQ(left.cols(), 2);
  EXPECT_EQ(right.rows(), 3);
  EXPECT_EQ(right.cols(), 2);
  // Symmetric path: left chain equals right chain.
  EXPECT_TRUE(left.ApproxEquals(right, 1e-12));
}

TEST_F(PathMatrixTest, EvenPathLeftHalfIsPrefixReachability) {
  PathDecomposition d = DecomposePath(graph_, Path("APCPA"));
  SparseMatrix left = LeftReachMatrix(d);
  EXPECT_TRUE(left.ApproxEquals(ReachProbability(graph_, Path("APC")).value(), 1e-12));
}

TEST_F(PathMatrixTest, EvenPathApcMeetsAtPapers) {
  // In the Fig-4 schema A-P-C has length 2 (A-P, P-C): even, meeting at
  // the paper type (5 objects), no edge-object insertion.
  PathDecomposition d = DecomposePath(graph_, Path("APC"));
  EXPECT_FALSE(d.edge_object_inserted);
  EXPECT_EQ(d.middle_dimension, 5);
  EXPECT_EQ(d.left_transitions.size(), 1u);   // U_AP
  EXPECT_EQ(d.right_transitions.size(), 1u);  // U_CP (inverse published_in)
  EXPECT_EQ(LeftReachMatrix(d).rows(), 3);
  EXPECT_EQ(RightReachMatrix(d).rows(), 2);
}

TEST_F(PathMatrixTest, OddPathDecompositionInsertsEdgeObjects) {
  // A-P-C-P has length 3; the middle atomic relation is published_in
  // (step 1), decomposed through one edge object per paper-conference
  // link = 5 instances.
  PathDecomposition d = DecomposePath(graph_, Path("APCP"));
  EXPECT_TRUE(d.edge_object_inserted);
  EXPECT_EQ(d.middle_dimension, 5);
  EXPECT_EQ(d.left_transitions.size(), 2u);   // U_AP then U_{P,E}
  EXPECT_EQ(d.right_transitions.size(), 2u);  // U_PC then U_{C,E}
  SparseMatrix left = LeftReachMatrix(d);
  SparseMatrix right = RightReachMatrix(d);
  EXPECT_EQ(left.rows(), 3);
  EXPECT_EQ(left.cols(), 5);
  EXPECT_EQ(right.rows(), 5);
  EXPECT_EQ(right.cols(), 5);
}

TEST_F(PathMatrixTest, OddLengthOneDecomposition) {
  PathDecomposition d = DecomposePath(graph_, Path("AP"));
  EXPECT_TRUE(d.edge_object_inserted);
  EXPECT_EQ(d.middle_dimension, 7);  // 7 writes edges
  EXPECT_EQ(d.left_transitions.size(), 1u);
  EXPECT_EQ(d.right_transitions.size(), 1u);
}

TEST_F(PathMatrixTest, ReachMatricesAreSubStochastic) {
  for (const char* spec : {"AP", "APC", "APA", "APCPA", "CPA"}) {
    PathDecomposition d = DecomposePath(graph_, Path(spec));
    const SparseMatrix left = LeftReachMatrix(d);
    const SparseMatrix right = RightReachMatrix(d);
    for (const SparseMatrix* m : {&left, &right}) {
      for (Index r = 0; r < m->rows(); ++r) {
        EXPECT_LE(m->RowSum(r), 1.0 + 1e-12) << spec;
      }
    }
  }
}

TEST_F(PathMatrixTest, RandomGraphDecompositionConsistency) {
  // On random tripartite graphs, left/right matrices of the odd path A-B-C
  // must reproduce the unnormalized HeteSim as a product (Equation 6-style
  // consistency check at the matrix level).
  for (uint64_t seed : {1u, 2u, 3u}) {
    HinGraph g = testing::RandomTripartite(6, 8, 5, 0.3, seed);
    MetaPath abc = *MetaPath::Parse(g.schema(), "ABC");
    PathDecomposition d = DecomposePath(g, abc);
    SparseMatrix left = LeftReachMatrix(d);
    SparseMatrix right = RightReachMatrix(d);
    EXPECT_EQ(left.rows(), 6);
    EXPECT_EQ(right.rows(), 5);
    EXPECT_EQ(left.cols(), right.cols());
  }
}

TEST(SanitizeTransition, AllFiniteIsUnchanged) {
  SparseMatrix m = SparseMatrix::FromTriplets(2, 2, {{0, 0, 0.5}, {1, 1, 0.5}});
  SparseMatrix sanitized = SanitizeTransition(m);
  EXPECT_TRUE(sanitized.ApproxEquals(m, 0.0));
}

TEST(SanitizeTransition, PoisonedRowsBecomeZero) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      3, 2,
      {{0, 0, 0.5}, {0, 1, std::nan("")},  // row 0: poisoned by NaN
       {1, 0, 1.0},                        // row 1: clean, must survive
       {2, 1, std::numeric_limits<double>::infinity()}});  // row 2: poisoned
  SparseMatrix sanitized = SanitizeTransition(m);
  EXPECT_EQ(sanitized.RowNnz(0), 0);
  EXPECT_EQ(sanitized.RowNnz(2), 0);
  EXPECT_DOUBLE_EQ(sanitized.At(1, 0), 1.0);
  EXPECT_EQ(sanitized.rows(), 3);
  EXPECT_EQ(sanitized.cols(), 2);
}

TEST(SanitizeTransition, ZeroRelevanceFlowsThroughHeteSim) {
  // A NaN middle-step weight must surface as 0 relevance for the affected
  // pairs, never as NaN scores (the paper's unreachable-pair convention).
  SparseMatrix dirty = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, std::nan("")}, {1, 1, 1.0}});
  SparseMatrix clean = SanitizeTransition(dirty);
  std::vector<double> u{1.0, 0.0};
  std::vector<double> reached = clean.LeftMultiplyVector(u);
  for (double v : reached) EXPECT_TRUE(std::isfinite(v));
  EXPECT_DOUBLE_EQ(reached[0], 0.0);
  EXPECT_DOUBLE_EQ(reached[1], 0.0);
}

}  // namespace
}  // namespace hetesim
