// Stress tier (CTest label "stress"): adversarial workload runs that hammer
// the engine's degradation paths at full concurrency. These run in the
// default ctest invocation — including the CI TSan/ASan matrix legs — but
// are tuned to finish in seconds; the open-ended versions live in the soak
// tier.
//
// The central invariant, checked in-line via the runner's observer hook:
// under a deadline storm, top-k queries may truncate but must NEVER return
// an unmarked partial result, and the items they do return are always in
// (score desc, id asc) order with at most k entries.

#include <atomic>

#include "common/mutex.h"
#include "gtest/gtest.h"
#include "workload/config.h"
#include "workload/report.h"
#include "workload/runner.h"

namespace hetesim::workload {
namespace {

/// Observer state shared across worker threads.
struct TopKAudit {
  std::atomic<int64_t> topk_queries{0};
  std::atomic<int64_t> truncated{0};
  std::atomic<int64_t> unmarked_partial{0};
  std::atomic<int64_t> misordered{0};
  std::atomic<int64_t> overlong{0};
  std::atomic<int64_t> errors{0};

  void Check(const QuerySpec& spec, const QueryObservation& obs) {
    if (obs.outcome == QueryOutcome::kError) errors.fetch_add(1);
    if (!obs.topk.has_value()) return;
    topk_queries.fetch_add(1);
    const TopKResult& result = *obs.topk;
    if (result.truncated) truncated.fetch_add(1);
    // A query that did not process every frontier entry MUST carry the
    // truncation marker — a silent partial answer is the bug this tier
    // exists to catch.
    if (result.middle_processed < result.middle_total && !result.truncated) {
      unmarked_partial.fetch_add(1);
    }
    if (static_cast<int>(result.items.size()) > spec.k) overlong.fetch_add(1);
    for (size_t i = 1; i < result.items.size(); ++i) {
      const Scored& prev = result.items[i - 1];
      const Scored& cur = result.items[i];
      const bool ordered = prev.score > cur.score ||
                           (prev.score == cur.score && prev.id < cur.id);
      if (!ordered) misordered.fetch_add(1);
    }
  }
};

TEST(WorkloadStress, DeadlineStormNeverYieldsUnmarkedOrMisorderedResults) {
  // A conference's frontier (~80 papers) above the scatter's first poll
  // stride (64 entries) so deadlines can actually interrupt the
  // accumulation; deadlines far below typical query latency so most
  // queries truncate.
  Result<WorkloadConfig> config = ParseWorkloadConfig(R"(
scenario storm_stress
graph dblp papers=1600 authors=700 seed=11
seed 1729
queries 800
warmup 50
arrival open workers=8 rate_qps=100000
popularity zipf s=1.2
cache unlimited
class storm   type=topk path=C-P-A weight=0.7 k=12 deadline_ms=0.002 deadline_jitter_pct=90
class breathe type=topk path=C-P-A weight=0.3 k=12 deadline_ms=50
)");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  Result<std::unique_ptr<WorkloadRunner>> runner =
      WorkloadRunner::Create(*config);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();

  TopKAudit audit;
  RunOptions options;
  options.realtime = false;  // max pressure: no pacing, all workers hot
  options.observer = [&audit](const QuerySpec& spec,
                              const QueryObservation& obs) {
    audit.Check(spec, obs);
  };
  Result<ScenarioReport> report = (*runner)->Run(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_GT(audit.topk_queries.load(), 0);
  EXPECT_GT(audit.truncated.load(), 0)
      << "storm deadlines never truncated — the stress is not stressing";
  EXPECT_EQ(audit.unmarked_partial.load(), 0);
  EXPECT_EQ(audit.misordered.load(), 0);
  EXPECT_EQ(audit.overlong.load(), 0);
  EXPECT_EQ(audit.errors.load(), 0);

  // The report agrees with the in-line audit on the storm class.
  ASSERT_EQ(report->classes.size(), 2u);
  EXPECT_GT(report->classes[0].truncated, 0);
  EXPECT_EQ(report->classes[0].errors, 0);
  EXPECT_EQ(report->classes[1].errors, 0);
}

TEST(WorkloadStress, MultiTenantCountsArePreassignedAndFair) {
  Result<WorkloadConfig> config = ParseWorkloadConfig(R"(
scenario fairness_stress
graph dblp papers=200 authors=150 seed=11
seed 5
tenants 6
queries 600
arrival closed workers=6
class t type=topk path=C-P-A weight=0.5 k=5
class p type=pair path=A-P-A weight=0.5 deadline_ms=100
)");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  Result<std::unique_ptr<WorkloadRunner>> runner =
      WorkloadRunner::Create(*config);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  RunOptions options;
  options.realtime = false;
  Result<ScenarioReport> report = (*runner)->Run(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  // Tenant assignment is uniform in the schedule: with 600 queries over 6
  // tenants every tenant sees 100 +- statistical noise, and the counts are
  // a pure function of the seed (asserted bitwise in test_workload.cc).
  ASSERT_EQ(report->tenants_stats.size(), 6u);
  int64_t total = 0;
  for (const TenantStats& t : report->tenants_stats) {
    EXPECT_GT(t.queries, 60) << "tenant " << t.tenant << " starved";
    EXPECT_LT(t.queries, 140) << "tenant " << t.tenant << " dominates";
    total += t.queries;
  }
  EXPECT_EQ(total, 600);
}

TEST(WorkloadStress, CacheHostileMixSurvivesATinyBudget) {
  Result<WorkloadConfig> config = ParseWorkloadConfig(R"(
scenario thrash_stress
graph dblp papers=400 authors=300 seed=11
seed 23
queries 300
arrival closed workers=6
popularity uniform
cache mb=1
class long_a type=topk path=A-P-T-P-A weight=0.34 k=8 deadline_ms=500
class long_b type=single path=T-P-A-P-T weight=0.33
class long_c type=pair path=C-P-T-P-C weight=0.33 deadline_ms=250
)");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  Result<std::unique_ptr<WorkloadRunner>> runner =
      WorkloadRunner::Create(*config);
  ASSERT_TRUE(runner.ok()) << runner.status().ToString();
  RunOptions options;
  options.realtime = false;
  Result<ScenarioReport> report = (*runner)->Run(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Under a 1 MB budget the long-path working set cannot fit; the run must
  // still complete every query without errors, and the budget must have
  // been respected (peak accounted bytes within the limit).
  for (const ClassStats& cls : report->classes) {
    EXPECT_EQ(cls.errors, 0) << cls.name;
    EXPECT_EQ(cls.cancelled, 0) << cls.name;
  }
  EXPECT_EQ(report->cache_limit_bytes, size_t{1} << 20);
  EXPECT_LE(report->cache_peak_bytes, report->cache_limit_bytes);
}

}  // namespace
}  // namespace hetesim::workload
