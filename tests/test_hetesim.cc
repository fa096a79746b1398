#include "core/hetesim.h"

#include <cmath>

#include <gtest/gtest.h>

#include "core/materialize.h"
#include "test_util.h"

namespace hetesim {
namespace {

MetaPath Parse(const HinGraph& g, const char* spec) {
  return *MetaPath::Parse(g.schema(), spec);
}

// --- The paper's worked examples ---

TEST(HeteSimPaper, Example2TomKddUnnormalized) {
  // Example 2 of the paper: with O(Tom|AP) = {p1, p2} and
  // I(KDD|PC) = {p1, p2}, HeteSim(Tom, KDD | APC) = 0.5 before
  // normalization ("they meet at the same papers with probability 0.5").
  HinGraph g = testing::BuildFig4Graph(/*example2=*/true);
  HeteSimEngine raw(g, {.normalized = false});
  MetaPath apc = Parse(g, "APC");
  TypeId author = *g.schema().TypeByCode('A');
  TypeId conf = *g.schema().TypeByCode('C');
  Index tom = *g.FindNode(author, "Tom");
  Index kdd = *g.FindNode(conf, "KDD");
  EXPECT_NEAR(*raw.ComputePair(apc, tom, kdd), 0.5, 1e-12);
}

TEST(HeteSimPaper, Example2NormalizedIsOne) {
  // Tom publishes only in KDD and KDD publishes only Tom's papers, so the
  // two reach distributions over the edge objects coincide: cosine = 1.
  HinGraph g = testing::BuildFig4Graph(/*example2=*/true);
  HeteSimEngine engine(g);
  MetaPath apc = Parse(g, "APC");
  EXPECT_NEAR(*engine.ComputePair(apc, 0, 0), 1.0, 1e-12);
}

TEST(HeteSimPaper, Fig5UnnormalizedValues) {
  // Fig. 5(c): the relatedness of a2 to (b1, b2, b3, b4) before
  // normalization is (0, 1/6, 1/3, 1/6); a1 to b1 is 1/2, a1 to b2 is 1/4.
  HinGraph g = testing::BuildFig5Graph();
  HeteSimEngine raw(g, {.normalized = false});
  MetaPath ab = Parse(g, "AB");
  DenseMatrix scores = raw.Compute(ab).value();
  EXPECT_NEAR(scores(1, 0), 0.0, 1e-12);
  EXPECT_NEAR(scores(1, 1), 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(scores(1, 2), 1.0 / 3.0, 1e-12);
  EXPECT_NEAR(scores(1, 3), 1.0 / 6.0, 1e-12);
  EXPECT_NEAR(scores(0, 0), 1.0 / 2.0, 1e-12);
  EXPECT_NEAR(scores(0, 1), 1.0 / 4.0, 1e-12);
}

TEST(HeteSimPaper, Fig5SelfSimilarityBelowOneBeforeNormalization) {
  // The paper observes that unnormalized a2-to-a2 relatedness along the
  // decomposed relation is 1/3, motivating normalization.
  HinGraph g = testing::BuildFig5Graph();
  HeteSimEngine raw(g, {.normalized = false});
  // Path A-B-A: a2's reach distribution over B is (0, 1/3, 1/3, 1/3); the
  // meeting probability with itself is 3 * (1/3)^2 = 1/3, the paper's 0.33.
  MetaPath aba = *MetaPath::FromRelations(g.schema(), {"rel", "~rel"});
  EXPECT_NEAR(*raw.ComputePair(aba, 1, 1), 1.0 / 3.0, 1e-12);
  // After normalization the self-relatedness is exactly 1.
  HeteSimEngine engine(g);
  EXPECT_NEAR(*engine.ComputePair(aba, 1, 1), 1.0, 1e-12);
}

TEST(HeteSimPaper, Fig5NormalizedMoreReasonable) {
  // Fig. 5(d): after normalization a2 is most related to b3 (its exclusive
  // neighbor), and every score lies in [0, 1].
  HinGraph g = testing::BuildFig5Graph();
  HeteSimEngine engine(g);
  DenseMatrix scores = engine.Compute(Parse(g, "AB")).value();
  EXPECT_GT(scores(1, 2), scores(1, 1));
  EXPECT_GT(scores(1, 2), scores(1, 3));
  EXPECT_EQ(scores(1, 0), 0.0);
  for (Index i = 0; i < scores.rows(); ++i) {
    for (Index j = 0; j < scores.cols(); ++j) {
      EXPECT_GE(scores(i, j), 0.0);
      EXPECT_LE(scores(i, j), 1.0 + 1e-12);
    }
  }
}

TEST(HeteSimPaper, Equation5MatrixForm) {
  // Equation 5 of the paper in its original U·V form: for the even path
  // A-P-C, HeteSim_unnormalized(A, C | APC) = U_AP * V_PC where U is the
  // row-normalized and V the column-normalized adjacency (Definition 8).
  // Our implementation computes PM_PL * PM_(PR^-1)' instead; Property 2
  // (V_AB = U_BA') makes them equal, and this test pins that down.
  HinGraph g = testing::BuildFig4Graph();
  RelationId writes = *g.schema().RelationByName("writes");
  RelationId published = *g.schema().RelationByName("published_in");
  SparseMatrix u_ap = g.Adjacency(writes).RowNormalized();
  SparseMatrix v_pc = g.Adjacency(published).ColNormalized();
  DenseMatrix expected = u_ap.Multiply(v_pc).ToDense();
  HeteSimEngine raw(g, {.normalized = false});
  DenseMatrix actual = raw.Compute(Parse(g, "APC")).value();
  EXPECT_TRUE(actual.ApproxEquals(expected, 1e-12));
}

TEST(HeteSimPaper, Equation5LongerChain) {
  // Same identity on the length-4 path A-P-C-P-A: U_AP U_PC V_CP V_PA.
  HinGraph g = testing::BuildFig4Graph();
  RelationId writes = *g.schema().RelationByName("writes");
  RelationId published = *g.schema().RelationByName("published_in");
  SparseMatrix u_ap = g.Adjacency(writes).RowNormalized();
  SparseMatrix u_pc = g.Adjacency(published).RowNormalized();
  SparseMatrix v_cp = g.AdjacencyTranspose(published).ColNormalized();
  SparseMatrix v_pa = g.AdjacencyTranspose(writes).ColNormalized();
  DenseMatrix expected =
      u_ap.Multiply(u_pc).Multiply(v_cp).Multiply(v_pa).ToDense();
  HeteSimEngine raw(g, {.normalized = false});
  DenseMatrix actual = raw.Compute(Parse(g, "APCPA")).value();
  EXPECT_TRUE(actual.ApproxEquals(expected, 1e-12));
}

// --- Semi-metric properties (Section 4.5) ---

TEST(HeteSimProperties, SymmetryOnFig4) {
  // Property 3: HeteSim(a, b | P) == HeteSim(b, a | P^-1).
  HinGraph g = testing::BuildFig4Graph();
  HeteSimEngine engine(g);
  MetaPath apc = Parse(g, "APC");
  MetaPath cpa = apc.Reverse();
  DenseMatrix forward = engine.Compute(apc).value();
  DenseMatrix backward = engine.Compute(cpa).value();
  EXPECT_TRUE(forward.ApproxEquals(backward.Transpose(), 1e-12));
}

TEST(HeteSimProperties, SymmetryOnRandomGraphsOddAndEvenPaths) {
  for (uint64_t seed : {11u, 22u, 33u}) {
    HinGraph g = testing::RandomTripartite(7, 9, 6, 0.3, seed);
    HeteSimEngine engine(g);
    for (const char* spec : {"AB", "ABC", "ABA", "ABCBA", "BCB"}) {
      MetaPath path = Parse(g, spec);
      DenseMatrix forward = engine.Compute(path).value();
      DenseMatrix backward = engine.Compute(path.Reverse()).value();
      EXPECT_TRUE(forward.ApproxEquals(backward.Transpose(), 1e-10))
          << spec << " seed " << seed;
    }
  }
}

TEST(HeteSimProperties, SelfMaximumOnSymmetricPaths) {
  // Property 4: for symmetric P, HeteSim(a, a | P) == 1 (when a reaches the
  // middle type at all) and every value lies in [0, 1].
  HinGraph g = testing::BuildFig4Graph();
  HeteSimEngine engine(g);
  for (const char* spec : {"APA", "APCPA", "PCP"}) {
    MetaPath path = Parse(g, spec);
    DenseMatrix scores = engine.Compute(path).value();
    for (Index i = 0; i < scores.rows(); ++i) {
      EXPECT_NEAR(scores(i, i), 1.0, 1e-12) << spec;
      for (Index j = 0; j < scores.cols(); ++j) {
        EXPECT_GE(scores(i, j), -1e-15) << spec;
        EXPECT_LE(scores(i, j), 1.0 + 1e-12) << spec;
      }
    }
  }
}

TEST(HeteSimProperties, RangeZeroOneOnArbitraryPaths) {
  HinGraph g = testing::RandomTripartite(8, 10, 7, 0.25, 44);
  HeteSimEngine engine(g);
  for (const char* spec : {"AB", "ABC", "ABCBA", "CBA"}) {
    DenseMatrix scores = engine.Compute(Parse(g, spec)).value();
    for (Index i = 0; i < scores.rows(); ++i) {
      for (Index j = 0; j < scores.cols(); ++j) {
        EXPECT_GE(scores(i, j), -1e-15);
        EXPECT_LE(scores(i, j), 1.0 + 1e-12);
      }
    }
  }
}

TEST(HeteSimProperties, NoOutNeighborsMeansZeroRelevance) {
  // The paper's convention: O(s|R1) empty => relevance 0 to everything.
  HinGraphBuilder builder;
  TypeId a = *builder.AddObjectType("alpha");
  TypeId b = *builder.AddObjectType("beta");
  RelationId r = *builder.AddRelation("r", a, b);
  builder.AddNode(a, "connected");
  builder.AddNode(a, "isolated");
  builder.AddNode(b, "target");
  EXPECT_TRUE(builder.AddEdge(r, 0, 0).ok());
  HinGraph g = std::move(builder).Build();
  HeteSimEngine engine(g);
  MetaPath ab = Parse(g, "AB");
  EXPECT_EQ(*engine.ComputePair(ab, 1, 0), 0.0);
  std::vector<double> row = *engine.ComputeSingleSource(ab, 1);
  for (double v : row) EXPECT_EQ(v, 0.0);
  DenseMatrix scores = engine.Compute(ab).value();
  EXPECT_EQ(scores(1, 0), 0.0);
  EXPECT_NEAR(scores(0, 0), 1.0, 1e-12);
}

// --- API consistency ---

class HeteSimConsistencyTest : public ::testing::TestWithParam<const char*> {
 protected:
  HeteSimConsistencyTest() : graph_(testing::RandomTripartite(6, 8, 5, 0.35, 99)) {}
  HinGraph graph_;
};

TEST_P(HeteSimConsistencyTest, PairMatchesMatrix) {
  HeteSimEngine engine(graph_);
  MetaPath path = Parse(graph_, GetParam());
  DenseMatrix scores = engine.Compute(path).value();
  for (Index i = 0; i < scores.rows(); ++i) {
    for (Index j = 0; j < scores.cols(); ++j) {
      EXPECT_NEAR(*engine.ComputePair(path, i, j), scores(i, j), 1e-10);
    }
  }
}

TEST_P(HeteSimConsistencyTest, SingleSourceMatchesMatrix) {
  HeteSimEngine engine(graph_);
  MetaPath path = Parse(graph_, GetParam());
  DenseMatrix scores = engine.Compute(path).value();
  for (Index i = 0; i < scores.rows(); ++i) {
    std::vector<double> row = *engine.ComputeSingleSource(path, i);
    ASSERT_EQ(row.size(), static_cast<size_t>(scores.cols()));
    for (Index j = 0; j < scores.cols(); ++j) {
      EXPECT_NEAR(row[static_cast<size_t>(j)], scores(i, j), 1e-10);
    }
  }
}

TEST_P(HeteSimConsistencyTest, CachedEngineAgreesWithUncached) {
  auto cache = std::make_shared<PathMatrixCache>();
  HeteSimEngine cached(graph_, {}, cache);
  HeteSimEngine uncached(graph_);
  MetaPath path = Parse(graph_, GetParam());
  EXPECT_TRUE(
      cached.Compute(path).value().ApproxEquals(uncached.Compute(path).value(), 1e-12));
  EXPECT_NEAR(*cached.ComputePair(path, 0, 0), *uncached.ComputePair(path, 0, 0),
              1e-12);
  std::vector<double> cached_row = *cached.ComputeSingleSource(path, 1);
  std::vector<double> uncached_row = *uncached.ComputeSingleSource(path, 1);
  for (size_t j = 0; j < cached_row.size(); ++j) {
    EXPECT_NEAR(cached_row[j], uncached_row[j], 1e-12);
  }
}

TEST_P(HeteSimConsistencyTest, UnnormalizedEqualsLeftDotRight) {
  HeteSimEngine raw(graph_, {.normalized = false});
  MetaPath path = Parse(graph_, GetParam());
  PathDecomposition d = DecomposePath(graph_, path);
  SparseMatrix left = LeftReachMatrix(d);
  SparseMatrix right = RightReachMatrix(d);
  DenseMatrix scores = raw.Compute(path).value();
  for (Index i = 0; i < scores.rows(); ++i) {
    for (Index j = 0; j < scores.cols(); ++j) {
      EXPECT_NEAR(scores(i, j),
                  RowCosine(left.RowIndices(i), left.RowValues(i),
                            right.RowIndices(j), right.RowValues(j),
                            /*normalized=*/false),
                  1e-12);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Paths, HeteSimConsistencyTest,
                         ::testing::Values("AB", "ABC", "ABA", "ABCBA", "BAB",
                                           "CBA", "BCB"));

TEST_P(HeteSimConsistencyTest, BatchPairsMatchSinglePairs) {
  MetaPath path = Parse(graph_, GetParam());
  const Index num_sources = graph_.NumNodes(path.SourceType());
  const Index num_targets = graph_.NumNodes(path.TargetType());
  std::vector<std::pair<Index, Index>> pairs;
  for (Index s = 0; s < num_sources; ++s) {
    pairs.push_back({s, s % num_targets});
    pairs.push_back({s, (s + 1) % num_targets});
  }
  pairs.push_back(pairs.front());  // repeated pair exercises memoization
  for (bool use_cache : {false, true}) {
    auto cache = use_cache ? std::make_shared<PathMatrixCache>() : nullptr;
    HeteSimEngine engine(graph_, {}, cache);
    std::vector<double> batch = *engine.ComputePairs(path, pairs);
    ASSERT_EQ(batch.size(), pairs.size());
    for (size_t i = 0; i < pairs.size(); ++i) {
      EXPECT_NEAR(batch[i],
                  *engine.ComputePair(path, pairs[i].first, pairs[i].second),
                  1e-12)
          << GetParam() << (use_cache ? " cached" : " uncached");
    }
  }
}

TEST(HeteSimBatch, EmptyPairListIsEmptyResult) {
  HinGraph g = testing::BuildFig4Graph();
  HeteSimEngine engine(g);
  MetaPath apc = Parse(g, "APC");
  EXPECT_TRUE(engine.ComputePairs(apc, {})->empty());
}

TEST(HeteSimBatch, RejectsAnyBadIdAtomically) {
  HinGraph g = testing::BuildFig4Graph();
  HeteSimEngine engine(g);
  MetaPath apc = Parse(g, "APC");
  EXPECT_TRUE(engine.ComputePairs(apc, {{0, 0}, {99, 0}}).status().IsOutOfRange());
  EXPECT_TRUE(engine.ComputePairs(apc, {{0, 0}, {0, 99}}).status().IsOutOfRange());
}

// --- Error handling ---

TEST(HeteSimErrors, ForeignSchemaPathRejected) {
  // A meta-path parsed against one graph's schema cannot be evaluated
  // against another graph (even a structural twin): every entry point
  // returns InvalidArgument naming the schema mismatch.
  HinGraph g = testing::BuildFig4Graph();
  HinGraph twin = testing::BuildFig4Graph();
  HeteSimEngine engine(g);
  MetaPath foreign = Parse(twin, "APC");
  EXPECT_TRUE(engine.ComputePair(foreign, 0, 0).status().IsInvalidArgument());
  EXPECT_TRUE(engine.ComputeSingleSource(foreign, 0).status().IsInvalidArgument());
  EXPECT_TRUE(engine.ComputePairs(foreign, {{0, 0}}).status().IsInvalidArgument());
  const Status compute = engine.Compute(foreign).status();
  EXPECT_TRUE(compute.IsInvalidArgument()) << compute.ToString();
  EXPECT_NE(compute.message().find("different schema"), std::string::npos);
}

TEST(HeteSimErrors, OutOfRangeIds) {
  HinGraph g = testing::BuildFig4Graph();
  HeteSimEngine engine(g);
  MetaPath apc = Parse(g, "APC");
  EXPECT_TRUE(engine.ComputePair(apc, -1, 0).status().IsOutOfRange());
  EXPECT_TRUE(engine.ComputePair(apc, 0, 99).status().IsOutOfRange());
  EXPECT_TRUE(engine.ComputeSingleSource(apc, 99).status().IsOutOfRange());
}

TEST(HeteSimErrors, SimRankSeriesValidation) {
  HinGraph g = testing::BuildFig4Graph();
  HeteSimEngine engine(g);
  RelationId writes = *g.schema().RelationByName("writes");
  EXPECT_TRUE(engine.SimRankSeries(99, 0, 0, 3).status().IsInvalidArgument());
  EXPECT_TRUE(engine.SimRankSeries(writes, 0, 0, 0).status().IsInvalidArgument());
  EXPECT_TRUE(engine.SimRankSeries(writes, 0, 0, 2).ok());
}

TEST(HeteSimEdgeCases, EmptyTargetType) {
  // A type with zero objects: queries along paths ending there return
  // empty results rather than failing.
  HinGraphBuilder builder;
  TypeId a = *builder.AddObjectType("alpha");
  TypeId b = *builder.AddObjectType("beta");
  RelationId r = *builder.AddRelation("r", a, b);
  builder.AddNode(a, "only");
  (void)r;
  (void)b;
  HinGraph g = std::move(builder).Build();
  HeteSimEngine engine(g);
  MetaPath ab = Parse(g, "AB");
  DenseMatrix scores = engine.Compute(ab).value();
  EXPECT_EQ(scores.rows(), 1);
  EXPECT_EQ(scores.cols(), 0);
  EXPECT_TRUE(engine.ComputeSingleSource(ab, 0)->empty());
  EXPECT_TRUE(engine.ComputePair(ab, 0, 0).status().IsOutOfRange());
}

TEST(HeteSimEdgeCases, RelationWithNoEdges) {
  HinGraphBuilder builder;
  TypeId a = *builder.AddObjectType("alpha");
  TypeId b = *builder.AddObjectType("beta");
  RelationId r = *builder.AddRelation("r", a, b);
  builder.AddNodes(a, 3);
  builder.AddNodes(b, 2);
  (void)r;
  HinGraph g = std::move(builder).Build();
  HeteSimEngine engine(g);
  MetaPath ab = Parse(g, "AB");
  DenseMatrix scores = engine.Compute(ab).value();
  for (Index i = 0; i < scores.rows(); ++i) {
    for (Index j = 0; j < scores.cols(); ++j) EXPECT_EQ(scores(i, j), 0.0);
  }
  MetaPath aba = Parse(g, "ABA");
  EXPECT_EQ(*engine.ComputePair(aba, 0, 0), 0.0);  // even self-relevance is 0
}

// --- Semantics sanity on Fig. 4 ---

TEST(HeteSimSemantics, PathDependentScores) {
  // Along APC Tom is unrelated to SIGMOD; along APAPC (through coauthors)
  // he becomes related, because Mary publishes there — the paper's
  // motivating example for path semantics (Section 4.2).
  HinGraph g = testing::BuildFig4Graph();
  HeteSimEngine engine(g);
  Index tom = 0;
  Index sigmod = 1;
  EXPECT_EQ(*engine.ComputePair(Parse(g, "APC"), tom, sigmod), 0.0);
  EXPECT_GT(*engine.ComputePair(Parse(g, "APAPC"), tom, sigmod), 0.0);
}

TEST(HeteSimSemantics, ExclusiveAuthorScoresHighest) {
  HinGraph g = testing::BuildFig4Graph();
  HeteSimEngine engine(g);
  DenseMatrix scores = engine.Compute(Parse(g, "APC")).value();
  // Bob publishes exclusively in SIGMOD whose papers p4, p5 include only
  // Bob+Mary: Bob-SIGMOD should be the highest author-conference score.
  double best = 0.0;
  for (Index a = 0; a < 3; ++a) {
    for (Index c = 0; c < 2; ++c) best = std::max(best, scores(a, c));
  }
  EXPECT_DOUBLE_EQ(scores(2, 1), best);
}

}  // namespace
}  // namespace hetesim
