#include "core/topk.h"

#include <limits>

#include <gtest/gtest.h>

#include "test_util.h"

namespace hetesim {
namespace {

TEST(TopK, OrdersDescending) {
  std::vector<Scored> top = TopK({0.1, 0.9, 0.5}, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].id, 1);
  EXPECT_EQ(top[1].id, 2);
  EXPECT_EQ(top[2].id, 0);
}

TEST(TopK, TruncatesToK) {
  std::vector<Scored> top = TopK({0.1, 0.9, 0.5, 0.7}, 2);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, 1);
  EXPECT_EQ(top[1].id, 3);
}

TEST(TopK, KLargerThanInput) {
  EXPECT_EQ(TopK({0.5}, 10).size(), 1u);
}

TEST(TopK, KZeroOrEmpty) {
  EXPECT_TRUE(TopK({0.5, 0.7}, 0).empty());
  EXPECT_TRUE(TopK({}, 5).empty());
}

TEST(TopK, TiesBrokenByAscendingId) {
  std::vector<Scored> top = TopK({0.5, 0.5, 0.5}, 3);
  EXPECT_EQ(top[0].id, 0);
  EXPECT_EQ(top[1].id, 1);
  EXPECT_EQ(top[2].id, 2);
}

class TopKSearcherTest : public ::testing::TestWithParam<const char*> {
 protected:
  TopKSearcherTest() : graph_(testing::RandomTripartite(12, 15, 9, 0.2, 123)) {}
  HinGraph graph_;
};

TEST_P(TopKSearcherTest, PrunedMatchesExhaustive) {
  MetaPath path = *MetaPath::Parse(graph_.schema(), GetParam());
  TopKSearcher searcher = TopKSearcher::Prepare(graph_, path).value();
  const Index num_sources = graph_.NumNodes(path.SourceType());
  for (Index s = 0; s < num_sources; ++s) {
    TopKResult pruned = *searcher.Query(s, 5);
    TopKResult exhaustive = *searcher.QueryExhaustive(s, 5);
    // The exhaustive result may contain trailing zero-score items that the
    // pruned search correctly omits; compare the positive prefix.
    size_t positive = 0;
    while (positive < exhaustive.items.size() &&
           exhaustive.items[positive].score > 0.0) {
      ++positive;
    }
    ASSERT_GE(pruned.items.size(), positive);
    for (size_t k = 0; k < positive; ++k) {
      EXPECT_EQ(pruned.items[k].id, exhaustive.items[k].id) << "source " << s;
      EXPECT_NEAR(pruned.items[k].score, exhaustive.items[k].score, 1e-10);
    }
    for (size_t k = positive; k < pruned.items.size(); ++k) {
      EXPECT_GT(pruned.items[k].score, 0.0);
    }
  }
}

TEST_P(TopKSearcherTest, PruningExaminesNoMoreThanAllTargets) {
  MetaPath path = *MetaPath::Parse(graph_.schema(), GetParam());
  TopKSearcher searcher = TopKSearcher::Prepare(graph_, path).value();
  TopKResult pruned = *searcher.Query(0, 3);
  TopKResult exhaustive = *searcher.QueryExhaustive(0, 3);
  EXPECT_LE(pruned.candidates_examined, exhaustive.candidates_examined);
  EXPECT_EQ(exhaustive.candidates_examined, searcher.num_targets());
}

INSTANTIATE_TEST_SUITE_P(Paths, TopKSearcherTest,
                         ::testing::Values("AB", "ABC", "ABA", "ABCBA"));

TEST(TopKSearcher, MatchesEngineScores) {
  HinGraph g = testing::BuildFig4Graph();
  MetaPath apc = *MetaPath::Parse(g.schema(), "APC");
  HeteSimEngine engine(g);
  TopKSearcher searcher = TopKSearcher::Prepare(g, apc).value();
  for (Index s = 0; s < 3; ++s) {
    std::vector<double> reference = *engine.ComputeSingleSource(apc, s);
    TopKResult result = *searcher.QueryExhaustive(s, 10);
    for (const Scored& item : result.items) {
      EXPECT_NEAR(item.score, reference[static_cast<size_t>(item.id)], 1e-12);
    }
  }
}

TEST(TopKSearcher, SparseSourcePrunesHard) {
  // Tom only reaches KDD along APC, so the pruned candidate set must be
  // strictly smaller than the full conference list... with 2 conferences
  // the distinction is tiny; use the sharper invariant: every candidate
  // has positive score.
  HinGraph g = testing::BuildFig4Graph();
  MetaPath apc = *MetaPath::Parse(g.schema(), "APC");
  TopKSearcher searcher = TopKSearcher::Prepare(g, apc).value();
  TopKResult result = *searcher.Query(0, 10);  // Tom
  EXPECT_EQ(result.items.size(), 1u);
  EXPECT_EQ(result.items[0].id, 0);  // KDD only
  EXPECT_EQ(result.candidates_examined, 1);
}

TEST(TopKSearcher, UnreachableSourceReturnsEmpty) {
  HinGraphBuilder builder;
  TypeId a = *builder.AddObjectType("alpha");
  TypeId b = *builder.AddObjectType("beta");
  RelationId r = *builder.AddRelation("r", a, b);
  builder.AddNode(a, "lonely");
  builder.AddNode(b, "t");
  HinGraph g = std::move(builder).Build();
  (void)r;
  MetaPath ab = *MetaPath::Parse(g.schema(), "AB");
  TopKSearcher searcher = TopKSearcher::Prepare(g, ab).value();
  TopKResult result = *searcher.Query(0, 5);
  EXPECT_TRUE(result.items.empty());
  EXPECT_EQ(result.candidates_examined, 0);
}

TEST(TopKSearcher, OutOfRangeSourceErrors) {
  HinGraph g = testing::BuildFig4Graph();
  MetaPath apc = *MetaPath::Parse(g.schema(), "APC");
  TopKSearcher searcher = TopKSearcher::Prepare(g, apc).value();
  EXPECT_TRUE(searcher.Query(-1, 5).status().IsOutOfRange());
  EXPECT_TRUE(searcher.Query(17, 5).status().IsOutOfRange());
  EXPECT_TRUE(searcher.QueryExhaustive(17, 5).status().IsOutOfRange());
}

TEST(TopKSearcherDeath, NegativeKAborts) {
  EXPECT_DEATH({ (void)TopK({1.0}, -1); }, "CHECK failed");
}

TEST(TopKPairs, MatchesBruteForce) {
  HinGraph g = testing::RandomTripartite(10, 12, 8, 0.25, 321);
  for (const char* spec : {"AB", "ABC", "ABA"}) {
    MetaPath path = *MetaPath::Parse(g.schema(), spec);
    HeteSimEngine engine(g);
    DenseMatrix scores = engine.Compute(path).value();
    std::vector<ScoredPair> brute;
    for (Index s = 0; s < scores.rows(); ++s) {
      for (Index t = 0; t < scores.cols(); ++t) {
        if (scores(s, t) > 0.0) brute.push_back({s, t, scores(s, t)});
      }
    }
    std::sort(brute.begin(), brute.end(), [](const ScoredPair& a, const ScoredPair& b) {
      if (a.score != b.score) return a.score > b.score;
      if (a.source != b.source) return a.source < b.source;
      return a.target < b.target;
    });
    const int k = 7;
    std::vector<ScoredPair> fast = *TopKPairs(g, path, k);
    ASSERT_EQ(fast.size(), std::min(static_cast<size_t>(k), brute.size())) << spec;
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i].source, brute[i].source) << spec << " rank " << i;
      EXPECT_EQ(fast[i].target, brute[i].target) << spec << " rank " << i;
      EXPECT_NEAR(fast[i].score, brute[i].score, 1e-10);
    }
  }
}

TEST(TopKPairs, ExcludeDiagonalOnSymmetricPath) {
  HinGraph g = testing::BuildFig4Graph();
  MetaPath apa = *MetaPath::Parse(g.schema(), "APA");
  std::vector<ScoredPair> with_diagonal = *TopKPairs(g, apa, 3);
  // Self-pairs (score 1) dominate a symmetric path.
  EXPECT_EQ(with_diagonal[0].source, with_diagonal[0].target);
  std::vector<ScoredPair> cross = *TopKPairs(g, apa, 3, /*exclude_diagonal=*/true);
  for (const ScoredPair& pair : cross) {
    EXPECT_NE(pair.source, pair.target);
  }
  // Mirror pairs both appear (the relation is symmetric), with equal score.
  ASSERT_GE(cross.size(), 2u);
  EXPECT_EQ(cross[0].source, cross[1].target);
  EXPECT_EQ(cross[0].target, cross[1].source);
  EXPECT_NEAR(cross[0].score, cross[1].score, 1e-12);
}

TEST(TopKPairs, IntMaxKRanksEveryPair) {
  // The largest k the CLI accepts: the per-source request must not
  // overflow, so INT_MAX returns the same ranking as |sources| x |targets|.
  HinGraph g = testing::RandomTripartite(10, 12, 8, 0.25, 321);
  for (const char* spec : {"AB", "ABC", "ABA"}) {
    MetaPath path = *MetaPath::Parse(g.schema(), spec);
    const int every = static_cast<int>(g.NumNodes(path.SourceType()) *
                                       g.NumNodes(path.TargetType()));
    std::vector<ScoredPair> all = *TopKPairs(g, path, every);
    ASSERT_FALSE(all.empty()) << spec;
    EXPECT_EQ(*TopKPairs(g, path, std::numeric_limits<int>::max()), all)
        << spec;
  }
}

TEST(TopKPairs, KZeroAndValidation) {
  HinGraph g = testing::BuildFig4Graph();
  MetaPath apc = *MetaPath::Parse(g.schema(), "APC");
  EXPECT_TRUE(TopKPairs(g, apc, 0)->empty());
  EXPECT_TRUE(TopKPairs(g, apc, -1).status().IsInvalidArgument());
}

}  // namespace
}  // namespace hetesim
