// Property suite for the frontier single-source executor (DESIGN.md §14):
// the frontier top-k must agree with the pruned and exhaustive algorithms
// to 1e-12 on generated DBLP/ACM networks, terminate early via the
// monotone bound without losing exactness, degrade to a marked partial
// result under cancellation mid-frontier, surface injected allocation
// failures at the `frontier.alloc` fault point, and fold cached partial
// products into never-seen paths (ad-hoc meta-path reuse).

#include "core/frontier.h"

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/context.h"
#include "common/fault_injection.h"
#include "core/hetesim.h"
#include "core/materialize.h"
#include "core/topk.h"
#include "datagen/acm_generator.h"
#include "datagen/dblp_generator.h"
#include "hin/metapath.h"
#include "test_util.h"

namespace hetesim {
namespace {

/// Generated networks shared across the suite (generation dominates the
/// runtime, so each dataset graph is built once).
const HinGraph& DatasetGraph(const std::string& dataset) {
  static std::map<std::string, HinGraph>* const kCache =
      new std::map<std::string, HinGraph>();  // hetesim-lint: allow(no-naked-new)
  auto it = kCache->find(dataset);
  if (it != kCache->end()) return it->second;
  if (dataset == "dblp") {
    DblpConfig config;
    config.num_papers = 260;
    config.num_authors = 180;
    config.num_terms = 120;
    config.seed = 17;
    return kCache->emplace(dataset, std::move(GenerateDblp(config)->graph))
        .first->second;
  }
  AcmConfig config;
  config.num_papers = 220;
  config.num_authors = 180;
  config.num_affiliations = 40;
  config.num_terms = 120;
  config.num_subjects = 25;
  config.seed = 17;
  return kCache->emplace(dataset, std::move(GenerateAcm(config)->graph))
      .first->second;
}

TopKSearcher PrepareWithAlgo(const HinGraph& graph, const MetaPath& path,
                             RelevanceAlgo algo,
                             PathMatrixCache* cache = nullptr) {
  HeteSimOptions options;
  options.algo = algo;
  Result<TopKSearcher> searcher = TopKSearcher::Prepare(
      graph, path, options, QueryContext::Background(), cache);
  HETESIM_CHECK(searcher.ok());
  return std::move(*searcher);
}

/// Both rankings are sorted by descending score, ties by ascending id.
/// Positions must carry (near-)identical scores; ids may swap only inside
/// a score tie, where the order is an implementation accident.
void ExpectSameRanking(const TopKResult& got, const TopKResult& want,
                       double tolerance, const std::string& label) {
  ASSERT_EQ(got.items.size(), want.items.size()) << label;
  for (size_t i = 0; i < got.items.size(); ++i) {
    EXPECT_NEAR(got.items[i].score, want.items[i].score, tolerance)
        << label << " rank " << i;
    if (got.items[i].id != want.items[i].id) {
      EXPECT_NEAR(got.items[i].score, want.items[i].score, tolerance)
          << label << " rank " << i << ": id swap outside a score tie";
    }
  }
}

struct FrontierCase {
  const char* dataset;
  const char* path;
};

void PrintTo(const FrontierCase& c, std::ostream* os) {
  *os << c.dataset << "_" << c.path;
}

class FrontierPropertyTest : public ::testing::TestWithParam<FrontierCase> {};

TEST_P(FrontierPropertyTest, MatchesPrunedAndExhaustive) {
  const FrontierCase& c = GetParam();
  const HinGraph& graph = DatasetGraph(c.dataset);
  const MetaPath path = *MetaPath::Parse(graph.schema(), c.path);
  TopKSearcher pruned = TopKSearcher::Prepare(graph, path).value();
  TopKSearcher frontier =
      PrepareWithAlgo(graph, path, RelevanceAlgo::kFrontier);
  const Index num_sources = graph.NumNodes(path.SourceType());
  const Index stride = num_sources > 60 ? num_sources / 60 : 1;
  for (Index s = 0; s < num_sources; s += stride) {
    for (int k : {1, 5, 23}) {
      const TopKResult f = *frontier.Query(s, k);
      const TopKResult p = *pruned.Query(s, k);
      ExpectSameRanking(f, p, 1e-12,
                        std::string(c.path) + " source " +
                            std::to_string(s) + " k " + std::to_string(k));
      // Exhaustive keeps zero-score candidates the sparse algos omit;
      // the positive prefix must agree.
      const TopKResult e = *pruned.QueryExhaustive(s, k);
      size_t positive = 0;
      while (positive < e.items.size() && e.items[positive].score > 0.0) {
        ++positive;
      }
      ASSERT_GE(f.items.size(), positive);
      for (size_t i = 0; i < positive; ++i) {
        EXPECT_NEAR(f.items[i].score, e.items[i].score, 1e-12)
            << c.path << " source " << s << " rank " << i;
      }
    }
  }
}

TEST_P(FrontierPropertyTest, NeverExaminesMoreThanPruned) {
  const FrontierCase& c = GetParam();
  const HinGraph& graph = DatasetGraph(c.dataset);
  const MetaPath path = *MetaPath::Parse(graph.schema(), c.path);
  TopKSearcher pruned = TopKSearcher::Prepare(graph, path).value();
  TopKSearcher frontier =
      PrepareWithAlgo(graph, path, RelevanceAlgo::kFrontier);
  const Index num_sources = graph.NumNodes(path.SourceType());
  for (Index s = 0; s < num_sources; s += 7) {
    EXPECT_LE(frontier.Query(s, 5)->candidates_examined,
              pruned.Query(s, 5)->candidates_examined)
        << c.path << " source " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GeneratedNets, FrontierPropertyTest,
    ::testing::Values(FrontierCase{"dblp", "A-P"},
                      FrontierCase{"dblp", "C-P-A"},
                      FrontierCase{"dblp", "A-P-C-P-A"},
                      FrontierCase{"dblp", "A-P-T-P-A"},
                      FrontierCase{"acm", "A-P-V-C"},
                      FrontierCase{"acm", "A-P-A"}));

TEST(Frontier, BoundExitKeepsExactnessAndHappens) {
  // k = 1 on a skewed long path: the leading candidate's lower bound
  // should overtake the shrinking tail bound well before the frontier is
  // exhausted — and when it does, the answer must still be exact.
  const HinGraph& graph = DatasetGraph("dblp");
  const MetaPath path = *MetaPath::Parse(graph.schema(), "A-P-C-P-A");
  TopKSearcher pruned = TopKSearcher::Prepare(graph, path).value();
  TopKSearcher frontier =
      PrepareWithAlgo(graph, path, RelevanceAlgo::kFrontier);
  int bound_exits = 0;
  const Index num_sources = graph.NumNodes(path.SourceType());
  for (Index s = 0; s < num_sources; ++s) {
    const TopKResult f = *frontier.Query(s, 1);
    const TopKResult p = *pruned.Query(s, 1);
    ExpectSameRanking(f, p, 1e-12, "source " + std::to_string(s));
    if (f.bound_exit) {
      ++bound_exits;
      EXPECT_LT(f.middle_processed, f.middle_total)
          << "a bound exit that processed the whole frontier is a no-op";
    }
    EXPECT_FALSE(p.bound_exit) << "pruned never reports bound exits";
  }
  EXPECT_GT(bound_exits, 0)
      << "no source triggered the monotone bound on " << num_sources
      << " sources; the early-exit path is dead code";
}

TEST(Frontier, TruncationThresholdTracksErrorBound) {
  const HinGraph& graph = DatasetGraph("dblp");
  const MetaPath path = *MetaPath::Parse(graph.schema(), "A-P-C-P-A");
  HeteSimOptions options;
  options.algo = RelevanceAlgo::kFrontier;
  options.truncation = 1e-3;  // relative per-hop threshold under frontier
  TopKSearcher truncated = *TopKSearcher::Prepare(
      graph, path, options, QueryContext::Background());
  TopKSearcher exact = PrepareWithAlgo(graph, path, RelevanceAlgo::kFrontier);
  for (Index s = 0; s < 40; ++s) {
    const TopKResult t = *truncated.Query(s, 5);
    const TopKResult e = *exact.Query(s, 5);
    EXPECT_GE(t.error_bound, 0.0);
    EXPECT_EQ(e.error_bound, 0.0) << "exact runs drop no mass";
    // Dropped mass is tiny relative mass per hop; scores stay close.
    ASSERT_LE(t.items.size(), e.items.size());
    for (size_t i = 0; i < t.items.size(); ++i) {
      EXPECT_NEAR(t.items[i].score, e.items[i].score, 1e-2)
          << "source " << s << " rank " << i;
    }
  }
}

TEST(Frontier, CancellationMidFrontierTruncatesInsteadOfErroring) {
  const HinGraph& graph = DatasetGraph("dblp");
  const MetaPath path = *MetaPath::Parse(graph.schema(), "A-P-C-P-A");
  TopKSearcher frontier =
      PrepareWithAlgo(graph, path, RelevanceAlgo::kFrontier);
  QueryContext cancelled;
  cancelled.Cancel();
  Result<TopKResult> result = frontier.Query(0, 5, cancelled);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->truncated);
  // The same contract for an already-expired deadline.
  const QueryContext expired =
      QueryContext::Background().WithDeadlineAfterMs(0);
  Result<TopKResult> late = frontier.Query(0, 5, expired);
  ASSERT_TRUE(late.ok()) << late.status().ToString();
  EXPECT_TRUE(late->truncated);
}

TEST(Frontier, MemoryBudgetExhaustionIsAnError) {
  // Unlike a deadline, running out of budget is not gracefully degradable:
  // the query reports ResourceExhausted rather than a partial ranking.
  const HinGraph& graph = DatasetGraph("dblp");
  const MetaPath path = *MetaPath::Parse(graph.schema(), "A-P-C-P-A");
  TopKSearcher frontier =
      PrepareWithAlgo(graph, path, RelevanceAlgo::kFrontier);
  MemoryBudget tiny(16);
  const QueryContext ctx = QueryContext::Background().WithBudget(&tiny);
  Result<TopKResult> result = frontier.Query(0, 5, ctx);
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
}

TEST(Frontier, AllocFaultInjectionSurfacesResourceExhausted) {
  if (!FaultInjector::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  FaultInjector::Global().Reset();
  const HinGraph& graph = DatasetGraph("dblp");
  const MetaPath path = *MetaPath::Parse(graph.schema(), "A-P-C-P-A");
  TopKSearcher frontier =
      PrepareWithAlgo(graph, path, RelevanceAlgo::kFrontier);
  FaultInjector::Global().Arm("frontier.alloc", 1.0, /*max_failures=*/1);
  Result<TopKResult> faulted = frontier.Query(0, 5);
  EXPECT_TRUE(faulted.status().IsResourceExhausted())
      << faulted.status().ToString();
  EXPECT_GE(FaultInjector::Global().StatsFor("frontier.alloc").failures, 1u);
  // The single allotted fault is spent; the retry succeeds.
  Result<TopKResult> retried = frontier.Query(0, 5);
  EXPECT_TRUE(retried.ok()) << retried.status().ToString();
  FaultInjector::Global().Reset();
}

TEST(Frontier, AdHocReuseFoldsCachedPartials) {
  const HinGraph& graph = DatasetGraph("dblp");
  // Warm the cache with the reach matrix of the shared A-P prefix — its
  // key doubles as both the left-prefix and (inverted) right-suffix
  // partial of the longer symmetric path.
  PathMatrixCache cache;
  const MetaPath prefix = *MetaPath::Parse(graph.schema(), "A-P");
  cache.GetReach(graph, prefix).value();
  const MetaPath path = *MetaPath::Parse(graph.schema(), "A-P-C-P-A");
  TopKSearcher with_cache =
      PrepareWithAlgo(graph, path, RelevanceAlgo::kFrontier, &cache);
  TopKSearcher without =
      PrepareWithAlgo(graph, path, RelevanceAlgo::kFrontier);
  const PathMatrixCache::Stats stats = cache.stats();
  EXPECT_GE(stats.prefix_probes, 1u);
  EXPECT_GE(stats.suffix_probes, 1u);
  EXPECT_GE(stats.prefix_probe_hits + stats.suffix_probe_hits, 1u)
      << "warm A-P partial was never found by the decomposition planner";
  EXPECT_GT(stats.partial_bytes_saved, 0u);
  for (Index s = 0; s < 40; ++s) {
    ExpectSameRanking(*with_cache.Query(s, 5), *without.Query(s, 5), 1e-12,
                      "source " + std::to_string(s));
  }
}

TEST(Frontier, LegacyFixedPollStrideMatchesAdaptive) {
  const HinGraph& graph = DatasetGraph("dblp");
  const MetaPath path = *MetaPath::Parse(graph.schema(), "A-P-C-P-A");
  HeteSimOptions fixed;
  fixed.algo = RelevanceAlgo::kFrontier;
  fixed.topk_poll_stride = PollStrideController::kLegacyFixedStride;
  TopKSearcher pinned = *TopKSearcher::Prepare(
      graph, path, fixed, QueryContext::Background());
  TopKSearcher adaptive =
      PrepareWithAlgo(graph, path, RelevanceAlgo::kFrontier);
  for (Index s = 0; s < 40; ++s) {
    ExpectSameRanking(*pinned.Query(s, 5), *adaptive.Query(s, 5), 1e-12,
                      "source " + std::to_string(s));
  }
}

TEST(Frontier, EnginePairsMatchDefaultAlgo) {
  const HinGraph& graph = DatasetGraph("dblp");
  const MetaPath path = *MetaPath::Parse(graph.schema(), "A-P-C-P-A");
  HeteSimOptions frontier_options;
  frontier_options.algo = RelevanceAlgo::kFrontier;
  HeteSimEngine frontier(graph, frontier_options);
  HeteSimEngine baseline(graph);
  std::vector<std::pair<Index, Index>> pairs;
  for (Index i = 0; i < 25; ++i) pairs.emplace_back(i, (i * 7 + 3) % 100);
  const std::vector<double> got = *frontier.ComputePairs(path, pairs);
  const std::vector<double> want = *baseline.ComputePairs(path, pairs);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-12) << "pair " << i;
  }
}

TEST(PollStrideController, FixedStridePins) {
  PollStrideController controller(1024);
  EXPECT_EQ(controller.stride(), 1024u);
  EXPECT_FALSE(controller.ShouldPoll(0));
  EXPECT_FALSE(controller.ShouldPoll(1023));
  EXPECT_TRUE(controller.ShouldPoll(1024));
  EXPECT_EQ(controller.stride(), 1024u) << "fixed stride must never adapt";
  EXPECT_FALSE(controller.ShouldPoll(1025));
  EXPECT_TRUE(controller.ShouldPoll(2048));
}

TEST(PollStrideController, AdaptiveStrideStaysClamped) {
  PollStrideController controller(0);
  size_t item = 0;
  for (int polls = 0; polls < 200; ++polls) {
    while (!controller.ShouldPoll(item)) ++item;
    EXPECT_GE(controller.stride(), PollStrideController::kMinStride);
    EXPECT_LE(controller.stride(), PollStrideController::kMaxStride);
  }
}

TEST(RelevanceAlgoNames, RoundTripAndReject) {
  EXPECT_EQ(*ParseRelevanceAlgo("exhaustive"), RelevanceAlgo::kExhaustive);
  EXPECT_EQ(*ParseRelevanceAlgo("pruned"), RelevanceAlgo::kPruned);
  EXPECT_EQ(*ParseRelevanceAlgo("frontier"), RelevanceAlgo::kFrontier);
  EXPECT_STREQ(AlgoName(RelevanceAlgo::kFrontier), "frontier");
  EXPECT_TRUE(ParseRelevanceAlgo("bogus").status().IsInvalidArgument());
}

}  // namespace
}  // namespace hetesim
