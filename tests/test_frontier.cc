// Property suite for the sparse single-source primitives (DESIGN.md §14).
// `TopKSearcher::Query` scatters the source's row of the cached left half
// through the shared `TargetIndex`: it must agree with the exhaustive
// oracle to 1e-12 on generated DBLP/ACM networks, examine exactly the
// targets with a positive score, reproduce the dense pruned accumulation
// and the cached single-source row bitwise, and degrade to a marked
// partial result under cancellation. A half computed on a cache miss folds
// a cached prefix partial (ad-hoc meta-path reuse). The cached
// single-source scatter must reproduce the dense row product bitwise,
// share one index per right half, and honour its context's budget and
// cancellation. The engine's top-k ranks like a searcher on its cache and,
// without one, ranks the positive entries of the cache-less single-source
// row bitwise, multiplies only the right half and reserves what that row
// reserves. The cache-less engine's frontier propagation surfaces injected
// allocation failures at the `frontier.alloc` fault point.

#include "core/frontier.h"

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/context.h"
#include "common/fault_injection.h"
#include "common/trace.h"
#include "core/hetesim.h"
#include "core/materialize.h"
#include "core/path_matrix.h"
#include "core/topk.h"
#include "datagen/acm_generator.h"
#include "datagen/dblp_generator.h"
#include "hin/metapath.h"
#include "matrix/ops.h"
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

TopKSearcher PrepareSearcher(const HinGraph& graph, const MetaPath& path,
                             PathMatrixCache* cache = nullptr) {
  Result<TopKSearcher> searcher = TopKSearcher::Prepare(
      graph, path, HeteSimOptions{}, QueryContext::Background(), cache);
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

/// The dense pruned accumulation that `Query` replaced, kept as a bitwise
/// reference: a dense `VectorThroughChain` source row, then a scatter
/// through the inverted index in ascending middle order, normalization by
/// the row norms and a (score desc, id asc) ranking.
class PrunedReference {
 public:
  PrunedReference(const HinGraph& graph, const MetaPath& path)
      : graph_(graph),
        path_(path),
        decomposition_(DecomposePath(graph, path)),
        right_(*MultiplyChain(decomposition_.right_transitions)),
        index_(right_.Transpose()) {}

  TopKResult Query(Index source, int k) const {
    std::vector<double> u(
        static_cast<size_t>(graph_.NumNodes(path_.SourceType())), 0.0);
    u[static_cast<size_t>(source)] = 1.0;
    u = VectorThroughChain(std::move(u), decomposition_.left_transitions);
    TopKResult result;
    const double nu = Norm2(u);
    if (nu == 0.0) return result;
    std::vector<double> scores(static_cast<size_t>(right_.rows()), 0.0);
    std::vector<Index> touched;
    for (size_t m = 0; m < u.size(); ++m) {
      if (u[m] == 0.0) continue;
      const auto targets = index_.RowIndices(static_cast<Index>(m));
      const auto weights = index_.RowValues(static_cast<Index>(m));
      for (size_t j = 0; j < targets.size(); ++j) {
        double& slot = scores[static_cast<size_t>(targets[j])];
        if (slot == 0.0) touched.push_back(targets[j]);
        slot += u[m] * weights[j];
      }
    }
    for (Index t : touched) {
      double s = scores[static_cast<size_t>(t)];
      const double nt = right_.RowNorm(t);
      if (nt != 0.0) s /= nu * nt;
      if (s != 0.0) result.items.push_back({t, s});
    }
    std::sort(result.items.begin(), result.items.end(),
              [](const Scored& a, const Scored& b) {
                return a.score != b.score ? a.score > b.score : a.id < b.id;
              });
    if (result.items.size() > static_cast<size_t>(k)) {
      result.items.resize(static_cast<size_t>(k));
    }
    result.candidates_examined = static_cast<Index>(touched.size());
    return result;
  }

 private:
  const HinGraph& graph_;
  const MetaPath& path_;
  PathDecomposition decomposition_;
  SparseMatrix right_;
  SparseMatrix index_;
};

struct FrontierCase {
  std::string dataset;
  std::string path;
};

void PrintTo(const FrontierCase& c, std::ostream* os) {
  *os << c.dataset << "_" << c.path;
}

/// Every X-P-Y and X-P-Z-P-Y path over {A, C, T} on the DBLP graph — C- and
/// T-sourced paths included — plus an odd path and two ACM paths.
std::vector<FrontierCase> AllCases() {
  std::vector<FrontierCase> cases = {
      {"dblp", "A-P"}, {"acm", "A-P-V-C"}, {"acm", "A-P-A"}};
  const std::string ends = "ACT";
  for (char x : ends) {
    for (char y : ends) {
      cases.push_back({"dblp", std::string{x, '-', 'P', '-', y}});
    }
  }
  for (char x : ends) {
    for (char z : ends) {
      for (char y : ends) {
        cases.push_back(
            {"dblp", std::string{x, '-', 'P', '-', z, '-', 'P', '-', y}});
      }
    }
  }
  return cases;
}

std::string CaseName(const ::testing::TestParamInfo<FrontierCase>& info) {
  std::string name = info.param.dataset + "_";
  for (char c : info.param.path) {
    if (c != '-') name += c;
  }
  return name;
}

class FrontierPropertyTest : public ::testing::TestWithParam<FrontierCase> {
 protected:
  const HinGraph& graph() const { return DatasetGraph(GetParam().dataset); }
  MetaPath path() const {
    return *MetaPath::Parse(graph().schema(), GetParam().path);
  }
  /// About 60 sources spread over the source type.
  std::vector<Index> Sources() const {
    const Index num_sources = graph().NumNodes(path().SourceType());
    const Index stride = num_sources > 60 ? num_sources / 60 : 1;
    std::vector<Index> sources;
    for (Index s = 0; s < num_sources; s += stride) sources.push_back(s);
    return sources;
  }
};

TEST_P(FrontierPropertyTest, MatchesExhaustive) {
  const MetaPath path = this->path();
  TopKSearcher searcher = PrepareSearcher(graph(), path);
  for (Index s : Sources()) {
    for (int k : {1, 5, 23}) {
      const TopKResult got = *searcher.Query(s, k);
      // Exhaustive keeps zero-score candidates the sparse search omits;
      // the positive prefix must agree.
      const TopKResult want = *searcher.QueryExhaustive(s, k);
      size_t positive = 0;
      while (positive < want.items.size() && want.items[positive].score > 0.0) {
        ++positive;
      }
      ASSERT_EQ(got.items.size(), positive)
          << GetParam().path << " source " << s << " k " << k;
      TopKResult want_positive = want;
      want_positive.items.resize(positive);
      ExpectSameRanking(got, want_positive, 1e-12,
                        GetParam().path + " source " + std::to_string(s) +
                            " k " + std::to_string(k));
    }
  }
}

TEST_P(FrontierPropertyTest, ExaminesExactlyThePositiveTargets) {
  const MetaPath path = this->path();
  TopKSearcher searcher = PrepareSearcher(graph(), path);
  const int all = static_cast<int>(searcher.num_targets());
  for (Index s : Sources()) {
    const TopKResult exhaustive = *searcher.QueryExhaustive(s, all);
    const auto positive = std::count_if(
        exhaustive.items.begin(), exhaustive.items.end(),
        [](const Scored& item) { return item.score > 0.0; });
    EXPECT_EQ(searcher.Query(s, 5)->candidates_examined, positive)
        << GetParam().path << " source " << s;
  }
}

TEST_P(FrontierPropertyTest, BitwiseEqualsPrunedAccumulation) {
  const MetaPath path = this->path();
  TopKSearcher searcher = PrepareSearcher(graph(), path);
  const PrunedReference reference(graph(), path);
  const int all = static_cast<int>(searcher.num_targets());
  for (Index s : Sources()) {
    for (int k : {5, all}) {
      const TopKResult got = *searcher.Query(s, k);
      const TopKResult want = reference.Query(s, k);
      EXPECT_EQ(got.items, want.items)
          << GetParam().path << " source " << s << " k " << k;
      EXPECT_EQ(got.candidates_examined, want.candidates_examined)
          << GetParam().path << " source " << s;
    }
  }
}

TEST_P(FrontierPropertyTest, CachedSingleSourceBitwiseEqualsDenseProduct) {
  // The cached single-source scatter against the dense row product on the
  // very halves the cache holds: the source's left row densified,
  // multiplied into the right half, divided by the row norm and each
  // target's norm.
  const MetaPath path = this->path();
  auto cache = std::make_shared<PathMatrixCache>();
  const HeteSimEngine engine(graph(), HeteSimOptions{}, cache);
  const Index num_sources = graph().NumNodes(path.SourceType());
  for (Index s = 0; s < num_sources; ++s) {
    const std::vector<double> got = *engine.ComputeSingleSource(path, s);
    const std::shared_ptr<const SparseMatrix> left = *cache->GetLeft(graph(), path);
    const std::shared_ptr<const SparseMatrix> right = *cache->GetRight(graph(), path);
    const std::vector<double> u = left->RowDense(s);
    std::vector<double> want = right->MultiplyVector(u);
    const double nu = Norm2(u);
    if (nu == 0.0) {
      want.assign(want.size(), 0.0);
    } else {
      for (Index t = 0; t < right->rows(); ++t) {
        const double nt = right->RowNorm(t);
        if (nt != 0.0) want[static_cast<size_t>(t)] /= nu * nt;
      }
    }
    ASSERT_EQ(got, want) << GetParam().path << " source " << s;
  }
}

TEST_P(FrontierPropertyTest, CachedTopKBitwiseEqualsCachedSingleSource) {
  // Top-k and single-source read the same cached halves: ranking every
  // target, top-k lists exactly the positive entries of the single-source
  // row, bitwise, by descending score then ascending id.
  const MetaPath path = this->path();
  auto cache = std::make_shared<PathMatrixCache>();
  const HeteSimEngine engine(graph(), HeteSimOptions{}, cache);
  TopKSearcher searcher = PrepareSearcher(graph(), path, cache.get());
  const int all = static_cast<int>(searcher.num_targets());
  const Index num_sources = graph().NumNodes(path.SourceType());
  for (Index s = 0; s < num_sources; ++s) {
    const std::vector<double> row = *engine.ComputeSingleSource(path, s);
    std::vector<Scored> want;
    for (size_t t = 0; t < row.size(); ++t) {
      if (row[t] > 0.0) want.push_back({static_cast<Index>(t), row[t]});
    }
    std::sort(want.begin(), want.end(), [](const Scored& a, const Scored& b) {
      return a.score != b.score ? a.score > b.score : a.id < b.id;
    });
    const TopKResult got = *searcher.Query(s, all);
    ASSERT_EQ(got.items, want) << GetParam().path << " source " << s;
    EXPECT_EQ(got.candidates_examined, static_cast<Index>(want.size()))
        << GetParam().path << " source " << s;
  }
}

TEST_P(FrontierPropertyTest, EngineTopKEqualsSearcherAndExhaustive) {
  // On one cache, the engine's top-k reads the halves a searcher prepared
  // on that cache holds and ranks every target bitwise like it. Without a
  // cache it propagates the source instead of reading the left half and
  // agrees with the exhaustive oracle's positive entries to 1e-12.
  const MetaPath path = this->path();
  auto cache = std::make_shared<PathMatrixCache>();
  const HeteSimEngine cached(graph(), HeteSimOptions{}, cache);
  const HeteSimEngine uncached(graph());
  TopKSearcher searcher = PrepareSearcher(graph(), path, cache.get());
  const int all = static_cast<int>(searcher.num_targets());
  const Index num_sources = graph().NumNodes(path.SourceType());
  for (Index s = 0; s < num_sources; ++s) {
    const std::string label = GetParam().path + " source " + std::to_string(s);
    const TopKResult want = *searcher.Query(s, all);
    const TopKResult got = *cached.ComputeTopK(path, s, all);
    ASSERT_EQ(got.items, want.items) << label;
    EXPECT_EQ(got.candidates_examined, want.candidates_examined) << label;
    EXPECT_EQ(got.middle_total, want.middle_total) << label;

    TopKResult exhaustive = *searcher.QueryExhaustive(s, all);
    const auto zero = std::find_if(
        exhaustive.items.begin(), exhaustive.items.end(),
        [](const Scored& item) { return item.score <= 0.0; });
    exhaustive.items.erase(zero, exhaustive.items.end());
    ExpectSameRanking(*uncached.ComputeTopK(path, s, all), exhaustive, 1e-12,
                      label);
  }
}

TEST_P(FrontierPropertyTest, UncachedTopKBitwiseEqualsUncachedSingleSource) {
  // Without a cache, top-k and single-source run one plan: ranking every
  // target, top-k lists exactly the positive entries of the single-source
  // row, bitwise, by descending score then ascending id, and examines
  // exactly those.
  const MetaPath path = this->path();
  const HeteSimEngine engine(graph());
  const int all = static_cast<int>(graph().NumNodes(path.TargetType()));
  const Index num_sources = graph().NumNodes(path.SourceType());
  for (Index s = 0; s < num_sources; ++s) {
    const std::vector<double> row = *engine.ComputeSingleSource(path, s);
    std::vector<Scored> want;
    for (size_t t = 0; t < row.size(); ++t) {
      if (row[t] > 0.0) want.push_back({static_cast<Index>(t), row[t]});
    }
    std::sort(want.begin(), want.end(), [](const Scored& a, const Scored& b) {
      return a.score != b.score ? a.score > b.score : a.id < b.id;
    });
    const TopKResult got = *engine.ComputeTopK(path, s, all);
    ASSERT_EQ(got.items, want) << GetParam().path << " source " << s;
    EXPECT_EQ(got.candidates_examined, static_cast<Index>(want.size()))
        << GetParam().path << " source " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(GeneratedNets, FrontierPropertyTest,
                         ::testing::ValuesIn(AllCases()), CaseName);

TEST(Frontier, TruncationLeavesTopKExact) {
  // `truncation` only thins propagated frontiers; top-k reads the
  // materialized left half, so a truncating searcher answers bitwise like
  // an exact one.
  const HinGraph& graph = DatasetGraph("dblp");
  const MetaPath path = *MetaPath::Parse(graph.schema(), "A-P-C-P-A");
  HeteSimOptions options;
  options.truncation = 0.5;  // drops most of every propagated hop
  TopKSearcher truncated = *TopKSearcher::Prepare(
      graph, path, options, QueryContext::Background());
  TopKSearcher exact = PrepareSearcher(graph, path);
  for (Index s = 0; s < 40; ++s) {
    EXPECT_EQ(truncated.Query(s, 5)->items, exact.Query(s, 5)->items)
        << "source " << s;
  }
}

TEST(Frontier, CancellationTruncatesInsteadOfErroring) {
  // 4000 middle objects at density 0.02: source 0 reaches ~80 of them,
  // more than the first poll stride (64 entries).
  const HinGraph graph = testing::RandomTripartite(10, 4000, 10, 0.02, 7);
  QueryContext cancelled;
  cancelled.Cancel();
  const QueryContext expired =
      QueryContext::Background().WithDeadlineAfterMs(0);
  for (const QueryContext& dead : {cancelled, expired}) {
    // Cut mid-scatter: ABC's left row is source 0's B-neighbours, so the
    // scatter stops after its first stride with a marked partial ranking.
    const MetaPath abc = *MetaPath::Parse(graph.schema(), "ABC");
    TopKSearcher scatter = PrepareSearcher(graph, abc);
    Result<TopKResult> partial = scatter.Query(0, 5, dead);
    ASSERT_TRUE(partial.ok()) << partial.status().ToString();
    EXPECT_TRUE(partial->truncated);
    EXPECT_FALSE(partial->items.empty());
    EXPECT_LT(partial->middle_processed, partial->middle_total);
  }
  // A query shorter than one poll stride runs to completion: its answer is
  // exact and carries no truncation marker.
  const HinGraph& dblp = DatasetGraph("dblp");
  const MetaPath apcpa = *MetaPath::Parse(dblp.schema(), "A-P-C-P-A");
  TopKSearcher small = PrepareSearcher(dblp, apcpa);
  Result<TopKResult> complete = small.Query(0, 5, cancelled);
  ASSERT_TRUE(complete.ok()) << complete.status().ToString();
  EXPECT_FALSE(complete->truncated);
  EXPECT_EQ(complete->middle_processed, complete->middle_total);
  EXPECT_EQ(complete->items, small.Query(0, 5)->items);
}

TEST(Frontier, MemoryBudgetExhaustionIsAnError) {
  // Unlike a deadline, running out of budget is not gracefully degradable:
  // the query reports ResourceExhausted rather than a partial ranking.
  const HinGraph& graph = DatasetGraph("dblp");
  const MetaPath path = *MetaPath::Parse(graph.schema(), "A-P-C-P-A");
  TopKSearcher searcher = PrepareSearcher(graph, path);
  MemoryBudget tiny(16);
  const QueryContext ctx = QueryContext::Background().WithBudget(&tiny);
  Result<TopKResult> result = searcher.Query(0, 5, ctx);
  EXPECT_TRUE(result.status().IsResourceExhausted())
      << result.status().ToString();
  EXPECT_EQ(tiny.used_bytes(), 0u) << "a failed query releases its charges";
}

TEST(Frontier, AllocFaultInjectionSurfacesResourceExhausted) {
  if (!FaultInjector::CompiledIn()) {
    GTEST_SKIP() << "fault injection compiled out";
  }
  FaultInjector::Global().Reset();
  const HinGraph& graph = DatasetGraph("dblp");
  const MetaPath path = *MetaPath::Parse(graph.schema(), "A-P-C-P-A");
  // Without a cache, a pair query propagates both ends' frontiers.
  const HeteSimEngine engine(graph);
  FaultInjector::Global().Arm("frontier.alloc", 1.0, /*max_failures=*/1);
  Result<double> faulted = engine.ComputePair(path, 0, 1);
  EXPECT_TRUE(faulted.status().IsResourceExhausted())
      << faulted.status().ToString();
  EXPECT_GE(FaultInjector::Global().StatsFor("frontier.alloc").failures, 1u);
  // The single allotted fault is spent; the retry succeeds.
  Result<double> retried = engine.ComputePair(path, 0, 1);
  EXPECT_TRUE(retried.ok()) << retried.status().ToString();
  FaultInjector::Global().Reset();
}

TEST(Frontier, AdHocReuseFoldsCachedPartials) {
  // A never-seen path whose 3-step left half A-P-V-C starts with a cached
  // 2-step half, A-P-V: the miss folds that product with the V-C tail
  // instead of multiplying the whole chain.
  const HinGraph& graph = DatasetGraph("acm");
  PathMatrixCache cache;
  cache.GetLeft(graph, *MetaPath::Parse(graph.schema(), "A-P-V-P-A")).value();
  const MetaPath path = *MetaPath::Parse(graph.schema(), "A-P-V-C-V-P-A");
  TopKSearcher with_cache = PrepareSearcher(graph, path, &cache);
  const PathMatrixCache::Stats stats = cache.stats();
  EXPECT_GE(stats.prefix_probe_hits, 1u);
  EXPECT_GT(stats.partial_bytes_saved, 0u)
      << "the cached A-P-V half was not folded into A-P-V-C";
  // A fresh cache multiplies the whole chain; both agree to 1e-12.
  PathMatrixCache fresh;
  TopKSearcher without = PrepareSearcher(graph, path, &fresh);
  EXPECT_EQ(fresh.stats().partial_bytes_saved, 0u);
  EXPECT_TRUE(cache.GetLeft(graph, path).value()->ApproxEquals(
      *fresh.GetLeft(graph, path).value(), 1e-12));
  for (Index s = 0; s < 40; ++s) {
    ExpectSameRanking(*with_cache.Query(s, 5), *without.Query(s, 5), 1e-12,
                      "source " + std::to_string(s));
  }
}

TEST(Frontier, CachedPrepareSharesTheCachedLeftHalf) {
  // Top-k alone on an asymmetric path takes its left half from the cache,
  // computed once, and keeps it after the cache lets go of it.
  const HinGraph& graph = DatasetGraph("dblp");
  const MetaPath path = *MetaPath::Parse(graph.schema(), "A-P-T-P-C");
  ASSERT_NE(PathMatrixCache::LeftKey(path), PathMatrixCache::RightKey(path));
  PathMatrixCache cache;
  TopKSearcher searcher = PrepareSearcher(graph, path, &cache);
  EXPECT_EQ(cache.ComputeCount(PathMatrixCache::LeftKey(path)), 1u);
  TopKSearcher private_halves = PrepareSearcher(graph, path);
  std::vector<TopKResult> before;
  for (Index s = 0; s < 40; ++s) {
    before.push_back(*searcher.Query(s, 10));
    EXPECT_EQ(before.back().items, private_halves.Query(s, 10)->items)
        << "source " << s;
  }
  cache.Clear();
  for (Index s = 0; s < 40; ++s) {
    EXPECT_EQ(searcher.Query(s, 10)->items,
              before[static_cast<size_t>(s)].items)
        << "source " << s;
  }
}

TEST(TargetIndex, PathsSharingARightHalfShareOneIndex) {
  // A-P-T-P-A and C-P-T-P-A end in the same right half (A-P-T): a
  // single-source query and two cached preparations build its index once.
  const HinGraph& graph = DatasetGraph("dblp");
  const MetaPath aptpa = *MetaPath::Parse(graph.schema(), "A-P-T-P-A");
  const MetaPath cptpa = *MetaPath::Parse(graph.schema(), "C-P-T-P-A");
  ASSERT_EQ(PathMatrixCache::RightKey(aptpa), PathMatrixCache::RightKey(cptpa));
  auto cache = std::make_shared<PathMatrixCache>();
  const HeteSimEngine engine(graph, HeteSimOptions{}, cache);
  ASSERT_TRUE(engine.ComputeSingleSource(aptpa, 0).ok());
  TopKSearcher first = PrepareSearcher(graph, aptpa, cache.get());
  TopKSearcher second = PrepareSearcher(graph, cptpa, cache.get());
  EXPECT_EQ(cache->ComputeCount("IX:" + PathMatrixCache::RightKey(aptpa)), 1u);
  // The shared index answers like each path's own private one.
  TopKSearcher first_private = PrepareSearcher(graph, aptpa);
  TopKSearcher second_private = PrepareSearcher(graph, cptpa);
  for (Index s = 0; s < 20; ++s) {
    ExpectSameRanking(*first.Query(s, 10), *first_private.Query(s, 10), 1e-12,
                      "A-P-T-P-A source " + std::to_string(s));
    ExpectSameRanking(*second.Query(s, 10), *second_private.Query(s, 10), 1e-12,
                      "C-P-T-P-A source " + std::to_string(s));
  }
}

TEST(TargetIndex, SingleSourceReservesItsRowAndPollsTheScatter) {
  // 4000 middle objects at density 0.02: source 0's left row holds ~80
  // middle objects, more than the first poll stride (64 entries).
  const HinGraph graph = testing::RandomTripartite(10, 4000, 10, 0.02, 7);
  const MetaPath path = *MetaPath::Parse(graph.schema(), "ABC");
  auto cache = std::make_shared<PathMatrixCache>();
  const HeteSimEngine engine(graph, HeteSimOptions{}, cache);
  const std::vector<double> want = *engine.ComputeSingleSource(path, 0);
  const std::shared_ptr<const SparseMatrix> left = *cache->GetLeft(graph, path);
  const std::shared_ptr<const TargetIndex> index = *cache->GetTargetIndex(graph, path);
  ASSERT_GT(left->RowNnz(0), static_cast<Index>(PollStrideController::kInitialStride));

  // A budget one byte short of the dense answer row refuses the query and
  // keeps nothing reserved.
  MemoryBudget tiny(static_cast<size_t>(index->num_targets()) * sizeof(double) - 1);
  const Result<std::vector<double>> refused = engine.ComputeSingleSource(
      path, 0, QueryContext::Background().WithBudget(&tiny));
  EXPECT_TRUE(refused.status().IsResourceExhausted()) << refused.status().ToString();
  EXPECT_EQ(tiny.used_bytes(), 0u);

  // A dead context stops the query: through the engine, and inside the
  // scatter itself at its first poll.
  QueryContext cancelled;
  cancelled.Cancel();
  EXPECT_TRUE(engine.ComputeSingleSource(path, 0, cancelled).status().IsCancelled());
  EXPECT_TRUE(ScatterRow(*index, left->RowIndices(0), left->RowValues(0), true,
                         cancelled)
                  .status()
                  .IsCancelled());
  const QueryContext expired = QueryContext::Background().WithDeadlineAfterMs(0);
  EXPECT_TRUE(ScatterRow(*index, left->RowIndices(0), left->RowValues(0), true,
                         expired)
                  .status()
                  .IsDeadlineExceeded());
  // A live context gets the engine's answer.
  EXPECT_EQ(*ScatterRow(*index, left->RowIndices(0), left->RowValues(0), true,
                        QueryContext::Background()),
            want);
}

TEST(Frontier, UncachedSingleSourceReservesItsRow) {
  // Without a cache, single-source reserves its dense answer row on the
  // context's budget too: one byte short refuses the query and keeps
  // nothing reserved, and the row beside the dense frontier over the 20
  // middle objects is enough.
  const HinGraph graph = testing::RandomTripartite(10, 20, 4000, 0.05, 7);
  const MetaPath path = *MetaPath::Parse(graph.schema(), "ABC");
  const HeteSimEngine engine(graph);
  const size_t row_bytes = 4000 * sizeof(double);
  MemoryBudget short_by_one(row_bytes - 1);
  const Result<std::vector<double>> refused = engine.ComputeSingleSource(
      path, 0, QueryContext::Background().WithBudget(&short_by_one));
  EXPECT_TRUE(refused.status().IsResourceExhausted()) << refused.status().ToString();
  EXPECT_EQ(short_by_one.used_bytes(), 0u);
  MemoryBudget enough(row_bytes + 20 * sizeof(double));
  EXPECT_EQ(*engine.ComputeSingleSource(
                path, 0, QueryContext::Background().WithBudget(&enough)),
            *engine.ComputeSingleSource(path, 0));
}

TEST(Frontier, UncachedSingleSourceReservesItsDenseFrontier) {
  // The propagated frontier is densified over the whole middle type for
  // the row product, and that copy is charged too: a budget that admits
  // each hop's accumulator and the answer row, but not the row beside the
  // 20-entry dense frontier, refuses the query and keeps nothing reserved.
  const HinGraph graph = testing::RandomTripartite(10, 20, 4000, 0.05, 7);
  const MetaPath path = *MetaPath::Parse(graph.schema(), "ABC");
  const HeteSimEngine engine(graph);
  const size_t row_bytes = 4000 * sizeof(double);
  const size_t frontier_bytes = 20 * sizeof(double);
  MemoryBudget short_by_one(row_bytes + frontier_bytes - 1);
  const Result<std::vector<double>> refused = engine.ComputeSingleSource(
      path, 0, QueryContext::Background().WithBudget(&short_by_one));
  EXPECT_TRUE(refused.status().IsResourceExhausted()) << refused.status().ToString();
  EXPECT_EQ(short_by_one.used_bytes(), 0u);
}

TEST(Frontier, OneShotTopKReservesItsFrontierAndRow) {
  // Without a cache, top-k reserves what single-source reserves, the dense
  // frontier over the 20 middle objects beside the row over the 4000
  // targets: one byte short refuses the query and keeps nothing reserved,
  // and exactly that much is enough.
  const HinGraph graph = testing::RandomTripartite(10, 20, 4000, 0.05, 7);
  const MetaPath path = *MetaPath::Parse(graph.schema(), "ABC");
  const HeteSimEngine engine(graph);
  const size_t plan_bytes = (4000 + 20) * sizeof(double);
  MemoryBudget short_by_one(plan_bytes - 1);
  const Result<TopKResult> refused = engine.ComputeTopK(
      path, 0, 5, QueryContext::Background().WithBudget(&short_by_one));
  EXPECT_TRUE(refused.status().IsResourceExhausted()) << refused.status().ToString();
  EXPECT_EQ(short_by_one.used_bytes(), 0u);
  MemoryBudget enough(plan_bytes);
  const Result<TopKResult> served = engine.ComputeTopK(
      path, 0, 5, QueryContext::Background().WithBudget(&enough));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  EXPECT_EQ(served->items, engine.ComputeTopK(path, 0, 5)->items);
  EXPECT_EQ(enough.used_bytes(), 0u);
}

TEST(Frontier, OneShotTopKMultipliesOnlyTheRightHalf) {
  // Without a cache, top-k on an asymmetric 4-step path propagates the
  // source through the left half instead of multiplying it: one chain
  // product, the right half's, where a cache-less searcher multiplies
  // both. The rankings are bitwise equal.
  const HinGraph& graph = DatasetGraph("dblp");
  const MetaPath path = *MetaPath::Parse(graph.schema(), "A-P-T-P-C");
  ASSERT_NE(PathMatrixCache::LeftKey(path), PathMatrixCache::RightKey(path));
  const HeteSimEngine engine(graph);
  TopKSearcher searcher = PrepareSearcher(graph, path);
  const int all = static_cast<int>(searcher.num_targets());
  for (Index s = 0; s < 40; ++s) {
    Trace trace;
    const Result<TopKResult> got = engine.ComputeTopK(
        path, s, all, QueryContext::Background().WithTrace(&trace));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const std::vector<Trace::Span> spans = trace.Spans();
    EXPECT_EQ(std::count_if(spans.begin(), spans.end(),
                            [](const Trace::Span& span) {
                              return span.name == "chain.step";
                            }),
              1)
        << "source " << s;
    EXPECT_EQ(got->items, searcher.Query(s, all)->items) << "source " << s;
  }
}

TEST(Frontier, OneShotSymmetricComputeMultipliesOneHalf) {
  // A symmetric path's two halves are the same product, so a cache-less
  // Compute multiplies the right half once and uses it as both. The left
  // product it skips is bitwise that half, so the scores do not change.
  const HinGraph& graph = DatasetGraph("dblp");
  const HeteSimEngine engine(graph);
  const HeteSimEngine cached(graph, HeteSimOptions{},
                             std::make_shared<PathMatrixCache>());
  for (const char* spec : {"C-P-A-P-C", "C-P-T-P-C", "T-P-C-P-T"}) {
    SCOPED_TRACE(spec);
    const MetaPath path = *MetaPath::Parse(graph.schema(), spec);
    ASSERT_EQ(path, path.Reverse());
    Trace trace;
    const Result<DenseMatrix> got =
        engine.Compute(path, QueryContext::Background().WithTrace(&trace));
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    const std::vector<Trace::Span> spans = trace.Spans();
    EXPECT_EQ(std::count_if(spans.begin(), spans.end(),
                            [](const Trace::Span& span) {
                              return span.name == "chain.step";
                            }),
              1);
    const PathDecomposition decomposition = DecomposePath(graph, path);
    const SparseMatrix left = LeftReachMatrix(decomposition);
    const SparseMatrix right = RightReachMatrix(decomposition);
    EXPECT_EQ(left.row_ptr(), right.row_ptr());
    EXPECT_EQ(left.col_idx(), right.col_idx());
    EXPECT_EQ(left.values(), right.values());
    EXPECT_TRUE(got->ApproxEquals(*cached.Compute(path), 1e-12));
  }
}

TEST(Frontier, UncachedEnginePairsMatchCached) {
  const HinGraph& graph = DatasetGraph("dblp");
  const MetaPath path = *MetaPath::Parse(graph.schema(), "A-P-C-P-A");
  HeteSimEngine uncached(graph);
  HeteSimEngine cached(graph, HeteSimOptions{},
                       std::make_shared<PathMatrixCache>());
  std::vector<std::pair<Index, Index>> pairs;
  for (Index i = 0; i < 25; ++i) pairs.emplace_back(i, (i * 7 + 3) % 100);
  pairs.emplace_back(3, 3);  // repeated ids reuse their frontiers
  pairs.emplace_back(3, 10);
  const std::vector<double> got = *uncached.ComputePairs(path, pairs);
  const std::vector<double> want = *cached.ComputePairs(path, pairs);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-12) << "pair " << i;
    EXPECT_EQ(got[i], *uncached.ComputePair(path, pairs[i].first,
                                           pairs[i].second))
        << "pair " << i;
  }
}

TEST(PollStrideController, AdaptiveStrideStaysClamped) {
  PollStrideController controller;
  size_t item = 0;
  for (int polls = 0; polls < 200; ++polls) {
    while (!controller.ShouldPoll(item)) ++item;
    EXPECT_GE(controller.stride(), PollStrideController::kMinStride);
    EXPECT_LE(controller.stride(), PollStrideController::kMaxStride);
  }
}

}  // namespace
}  // namespace hetesim
