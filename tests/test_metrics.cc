// Tests for the process-wide metrics registry (common/metrics.h) and for
// the exactness of the hot-path instrumentation: cache counters must agree
// with the cache's own stats even under a PR-1-style concurrent miss storm,
// kernel/plan counters must be deterministic at a fixed thread count, and
// concurrent recording must be clean under TSan (this file is part of the
// sanitizer CI matrix).

#include <array>
#include <cmath>
#include <condition_variable>
#include <limits>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "core/hetesim.h"
#include "core/materialize.h"
#include "hin/metapath.h"
#include "test_util.h"

namespace hetesim {
namespace {

// ---------------------------------------------------------------- Counter

TEST(Counter, IncrementsAndResets) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(Gauge, SetAddReset) {
  Gauge gauge;
  gauge.Set(10);
  gauge.Add(-3);
  EXPECT_EQ(gauge.value(), 7);
  gauge.Add(-20);
  EXPECT_EQ(gauge.value(), -13);  // levels may go negative transiently
  gauge.Reset();
  EXPECT_EQ(gauge.value(), 0);
}

// -------------------------------------------------------------- Histogram

TEST(Histogram, BucketBoundariesAreInclusiveUpperBounds) {
  Histogram h({0.001, 0.01, 0.1});
  h.Observe(0.0005);  // <= 0.001        -> bucket 0
  h.Observe(0.001);   // == boundary     -> bucket 0 (upper bound inclusive)
  h.Observe(0.0011);  // first > 0.001   -> bucket 1
  h.Observe(0.1);     // == last         -> bucket 2
  h.Observe(0.5);     // above all       -> +Inf bucket
  const std::vector<uint64_t> counts = h.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 1u);
  EXPECT_EQ(h.count(), 5u);
  EXPECT_NEAR(h.sum(), 0.0005 + 0.001 + 0.0011 + 0.1 + 0.5, 1e-12);
}

TEST(Histogram, NormalizesUnsortedBoundariesAndHandlesNonFinite) {
  Histogram h({0.1, 0.001, 0.1, 0.01});  // duplicates + out of order
  ASSERT_EQ(h.boundaries(), (std::vector<double>{0.001, 0.01, 0.1}));
  h.Observe(std::numeric_limits<double>::infinity());
  h.Observe(std::nan(""));
  const std::vector<uint64_t> counts = h.bucket_counts();
  EXPECT_EQ(counts.back(), 2u);  // both land in +Inf
  EXPECT_EQ(h.count(), 2u);
}

TEST(Histogram, ResetZeroesEverything) {
  Histogram h({1.0});
  h.Observe(0.5);
  h.Observe(2.0);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.sum(), 0.0);
  for (uint64_t c : h.bucket_counts()) EXPECT_EQ(c, 0u);
}

TEST(Histogram, DefaultLatencyBoundariesAreStrictlyIncreasing) {
  const std::vector<double>& b = DefaultLatencyBoundariesSeconds();
  ASSERT_GE(b.size(), 2u);
  for (size_t i = 1; i < b.size(); ++i) EXPECT_LT(b[i - 1], b[i]);
  EXPECT_LE(b.front(), 1e-6);
  EXPECT_GE(b.back(), 10.0);
}

// --------------------------------------------------------------- Registry

TEST(MetricsRegistry, ReturnsStableInstrumentReferences) {
  MetricsRegistry registry;
  Counter& a = registry.GetCounter("test_counter_total");
  Counter& b = registry.GetCounter("test_counter_total");
  EXPECT_EQ(&a, &b);
  a.Increment();
  EXPECT_EQ(b.value(), 1u);
  Histogram& h1 = registry.GetHistogram("test_hist", {1.0, 2.0});
  // Later registrations ignore the (different) boundaries.
  Histogram& h2 = registry.GetHistogram("test_hist", {42.0});
  EXPECT_EQ(&h1, &h2);
  EXPECT_EQ(h2.boundaries(), (std::vector<double>{1.0, 2.0}));
}

TEST(MetricsRegistry, CollectSortsNamesAndSnapshotsValues) {
  MetricsRegistry registry;
  registry.GetCounter("zzz_total").Increment(3);
  registry.GetCounter("aaa_total").Increment(1);
  registry.GetGauge("mid_bytes").Set(-7);
  const MetricsRegistry::Snapshot snap = registry.Collect();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "aaa_total");
  EXPECT_EQ(snap.counters[0].second, 1u);
  EXPECT_EQ(snap.counters[1].first, "zzz_total");
  EXPECT_EQ(snap.counters[1].second, 3u);
  ASSERT_EQ(snap.gauges.size(), 1u);
  EXPECT_EQ(snap.gauges[0].second, -7);
}

TEST(MetricsRegistry, RenderPrometheusEmitsTypeLinesAndCumulativeBuckets) {
  MetricsRegistry registry;
  registry.GetCounter("req_total").Increment(2);
  Histogram& h = registry.GetHistogram("lat_seconds", {0.1, 1.0});
  h.Observe(0.05);
  h.Observe(0.5);
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("# TYPE req_total counter"), std::string::npos);
  EXPECT_NE(text.find("req_total 2"), std::string::npos);
  EXPECT_NE(text.find("# TYPE lat_seconds histogram"), std::string::npos);
  // Cumulative: the le="1" bucket includes the le="0.1" observation.
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"0.1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"1\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("lat_seconds_count 2"), std::string::npos);
}

TEST(MetricsRegistry, RenderJsonContainsAllSections) {
  MetricsRegistry registry;
  registry.GetCounter("c_total").Increment();
  registry.GetGauge("g_bytes").Set(5);
  registry.GetHistogram("h_seconds", {1.0}).Observe(0.5);
  const std::string json = registry.RenderJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"c_total\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"g_bytes\": 5"), std::string::npos);
  EXPECT_NE(json.find("\"bucket_counts\""), std::string::npos);
}

TEST(MetricsRegistry, ResetZeroesButKeepsReferencesValid) {
  MetricsRegistry registry;
  Counter& c = registry.GetCounter("c_total");
  c.Increment(9);
  registry.Reset();
  EXPECT_EQ(c.value(), 0u);
  c.Increment();
  EXPECT_EQ(registry.GetCounter("c_total").value(), 1u);
}

TEST(Metrics, RuntimeKillSwitchStopsRecordingSites) {
  ASSERT_TRUE(MetricsCompiledIn());
  ASSERT_TRUE(MetricsEnabled());
  Counter& hits = MetricsRegistry::Global().GetCounter("hetesim_cache_hits_total");
  Counter& misses =
      MetricsRegistry::Global().GetCounter("hetesim_cache_misses_total");
  const HinGraph graph = testing::BuildFig4Graph();
  const MetaPath path = *MetaPath::Parse(graph.schema(), "APC");
  PathMatrixCache cache;
  SetMetricsEnabled(false);
  const uint64_t hits_before = hits.value();
  const uint64_t misses_before = misses.value();
  cache.GetLeft(graph, path).value();  // miss
  cache.GetLeft(graph, path).value();  // hit
  SetMetricsEnabled(true);
  EXPECT_EQ(hits.value(), hits_before);
  EXPECT_EQ(misses.value(), misses_before);
  // Switched back on, the same sites record again.
  cache.GetLeft(graph, path).value();
  EXPECT_EQ(hits.value(), hits_before + 1);
}

// ------------------------------------------- Exact hot-path instrumentation

/// StartGate from the PR-1 concurrency suite: holds arriving threads until
/// all have arrived, then releases them together.
class StartGate {
 public:
  explicit StartGate(int expected) : expected_(expected) {}

  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (++arrived_ == expected_) {
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [this] { return arrived_ == expected_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int expected_;
  int arrived_ = 0;
};

TEST(CacheCounters, ExactUnderConcurrentMissStorm) {
  const HinGraph graph = testing::RandomTripartite(40, 50, 30, 0.15, 1234);
  std::vector<MetaPath> paths;
  for (const char* spec : {"ABCBA", "ABC", "CBA", "ABA", "BAB", "BCB", "AB"}) {
    paths.push_back(*MetaPath::Parse(graph.schema(), spec));
  }
  auto cache = std::make_shared<PathMatrixCache>();
  Counter& hits = MetricsRegistry::Global().GetCounter("hetesim_cache_hits_total");
  Counter& misses =
      MetricsRegistry::Global().GetCounter("hetesim_cache_misses_total");
  const uint64_t hits_before = hits.value();
  const uint64_t misses_before = misses.value();

  constexpr int kThreads = 8;
  constexpr int kRounds = 5;
  StartGate gate(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.ArriveAndWait();
      for (int round = 0; round < kRounds; ++round) {
        for (size_t p = 0; p < paths.size(); ++p) {
          const MetaPath& path =
              paths[(p + static_cast<size_t>(t)) % paths.size()];
          ASSERT_NE(cache->GetLeft(graph, path).value(), nullptr);
          ASSERT_NE(cache->GetRight(graph, path).value(), nullptr);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  // The registry counters must agree exactly with the cache's own stats:
  // every lookup was either a hit or a miss, misses == unique keys.
  std::set<std::string> keys;
  for (const MetaPath& path : paths) {
    keys.insert(PathMatrixCache::LeftKey(path));
    keys.insert(PathMatrixCache::RightKey(path));
  }
  const PathMatrixCache::Stats stats = cache->stats();
  EXPECT_EQ(misses.value() - misses_before, keys.size());
  EXPECT_EQ(hits.value() - hits_before, stats.hits);
  EXPECT_EQ((hits.value() - hits_before) + (misses.value() - misses_before),
            static_cast<uint64_t>(kThreads) * kRounds * paths.size() * 2);
}

TEST(CacheCounters, AccountedBytesGaugeReturnsToZeroOnClear) {
  Gauge& bytes =
      MetricsRegistry::Global().GetGauge("hetesim_cache_accounted_bytes");
  const int64_t before = bytes.value();
  const HinGraph graph = testing::BuildFig4Graph();
  const MetaPath path = *MetaPath::Parse(graph.schema(), "APC");
  {
    PathMatrixCache cache;
    cache.GetLeft(graph, path).value();
    EXPECT_GT(bytes.value(), before);
    cache.Clear();
    EXPECT_EQ(bytes.value(), before);
  }
}

TEST(CacheCounters, AccountedBytesGaugeReturnsToPriorOnDestruction) {
  // A cache that goes out of scope with entries still admitted, like the
  // private one a cache-less `TopKSearcher::Prepare` uses, takes its bytes
  // out of the process-wide gauge.
  Gauge& bytes =
      MetricsRegistry::Global().GetGauge("hetesim_cache_accounted_bytes");
  const int64_t before = bytes.value();
  const HinGraph graph = testing::BuildFig4Graph();
  const MetaPath path = *MetaPath::Parse(graph.schema(), "APCPA");
  {
    PathMatrixCache cache;
    cache.GetLeft(graph, path).value();
    cache.GetTargetIndex(graph, path).value();
    EXPECT_GT(bytes.value(), before);
  }
  EXPECT_EQ(bytes.value(), before);
}

/// Total SpGEMM row-kernel work recorded in the registry, summed over the
/// three sparse-output kernels and the dense-output driver.
uint64_t TotalKernelRows() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  return registry.GetCounter("hetesim_spgemm_rows_sorted_merge_total").value() +
         registry.GetCounter("hetesim_spgemm_rows_hash_total").value() +
         registry.GetCounter("hetesim_spgemm_rows_dense_scratch_total").value() +
         registry.GetCounter("hetesim_spgemm_dense_out_rows_total").value();
}

TEST(KernelCounters, DeterministicAtFixedThreadCount) {
  const HinGraph graph = testing::RandomTripartite(60, 45, 30, 0.1, 99);
  const MetaPath path = *MetaPath::Parse(graph.schema(), "ABCBA");
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& steps = registry.GetCounter("hetesim_plan_steps_total");
  Counter& predicted = registry.GetCounter("hetesim_plan_predicted_nnz_total");

  auto run_once = [&](int threads) {
    HeteSimOptions options;
    options.num_threads = threads;
    HeteSimEngine engine(graph, options);
    const uint64_t rows0 = TotalKernelRows();
    const uint64_t steps0 = steps.value();
    const uint64_t predicted0 = predicted.value();
    auto scores = engine.Compute(path, QueryContext::Background());
    EXPECT_TRUE(scores.ok()) << scores.status().ToString();
    return std::array<uint64_t, 3>{TotalKernelRows() - rows0,
                                   steps.value() - steps0,
                                   predicted.value() - predicted0};
  };

  // Two runs at the same thread count must record identical work counts,
  // and a different fixed thread count must still agree: the plan and the
  // per-row kernel choices are functions of the chain, not the schedule.
  const auto seq_a = run_once(1);
  const auto seq_b = run_once(1);
  const auto par_a = run_once(2);
  const auto par_b = run_once(2);
  EXPECT_EQ(seq_a, seq_b);
  EXPECT_EQ(par_a, par_b);
  EXPECT_EQ(seq_a, par_a);
  EXPECT_GT(seq_a[0], 0u);  // the path actually exercised the kernels
  EXPECT_GT(seq_a[1], 0u);
}

TEST(ConcurrentRecording, CountsAreExactUnderContention) {
  MetricsRegistry registry;
  Counter& counter = registry.GetCounter("stress_total");
  Gauge& gauge = registry.GetGauge("stress_level");
  Histogram& hist = registry.GetHistogram("stress_seconds", {0.5});
  constexpr int kThreads = 8;
  constexpr int kIters = 20000;
  StartGate gate(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.ArriveAndWait();
      for (int i = 0; i < kIters; ++i) {
        counter.Increment();
        gauge.Add(t % 2 == 0 ? 1 : -1);
        hist.Observe(i % 2 == 0 ? 0.25 : 0.75);
        if (i % 4096 == 0) {
          // Concurrent collection must never tear or deadlock.
          (void)registry.Collect();
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_EQ(gauge.value(), 0);
  EXPECT_EQ(hist.count(), static_cast<uint64_t>(kThreads) * kIters);
  const std::vector<uint64_t> counts = hist.bucket_counts();
  ASSERT_EQ(counts.size(), 2u);
  EXPECT_EQ(counts[0], static_cast<uint64_t>(kThreads) * kIters / 2);
  EXPECT_EQ(counts[1], static_cast<uint64_t>(kThreads) * kIters / 2);
}

TEST(EngineCounters, QueryAndLatencyRecorded) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter& queries = registry.GetCounter("hetesim_engine_queries_total");
  Histogram& latency = registry.GetHistogram(
      "hetesim_engine_query_latency_seconds", DefaultLatencyBoundariesSeconds());
  Counter& deadline =
      registry.GetCounter("hetesim_engine_deadline_exceeded_total");
  const uint64_t queries_before = queries.value();
  const uint64_t latency_before = latency.count();
  const uint64_t deadline_before = deadline.value();

  const HinGraph graph = testing::BuildFig4Graph();
  const MetaPath path = *MetaPath::Parse(graph.schema(), "APC");
  HeteSimEngine engine(graph);
  ASSERT_TRUE(engine.Compute(path, QueryContext::Background()).ok());
  EXPECT_EQ(queries.value(), queries_before + 1);
  EXPECT_EQ(latency.count(), latency_before + 1);

  // An already-expired deadline lands in the terminal-status counter.
  const QueryContext expired =
      QueryContext::Background().WithDeadlineAfterMs(0);
  auto result = engine.Compute(path, expired);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(queries.value(), queries_before + 2);
  EXPECT_EQ(deadline.value(), deadline_before + 1);
}

}  // namespace
}  // namespace hetesim
