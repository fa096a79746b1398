// Tier-1 tests for the workload harness: DSL parsing, generators, schedule
// determinism (the PR's acceptance contract), the latency recorder, and a
// small end-to-end run. Long/adversarial runs live in
// test_workload_stress.cc (stress tier) and test_workload_soak.cc (soak).

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "workload/config.h"
#include "workload/generators.h"
#include "workload/recorder.h"
#include "workload/report.h"
#include "workload/runner.h"
#include "workload/schedule.h"

namespace hetesim::workload {
namespace {

// ---------------------------------------------------------------------------
// Config DSL

constexpr char kFullConfig[] = R"(
# full-featured scenario
scenario parse_me
graph dblp papers=300 authors=200 seed=5
seed 99
tenants 4
queries 500
warmup 50
arrival open workers=6 rate_qps=250
popularity zipf s=1.3
cache mb=32
class hot_topk type=topk path=C-P-A weight=0.5 k=7 deadline_ms=20 deadline_jitter_pct=25
class row     type=single path=A-P-C weight=0.3 popularity=nurand
class pairs   type=pair path=A-P-A weight=0.2 deadline_ms=5
)";

TEST(WorkloadConfig, ParsesFullScenario) {
  Result<WorkloadConfig> config = ParseWorkloadConfig(kFullConfig);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->name, "parse_me");
  EXPECT_EQ(config->seed, 99u);
  EXPECT_EQ(config->tenants, 4);
  EXPECT_EQ(config->num_queries, 500);
  EXPECT_EQ(config->warmup_queries, 50);
  EXPECT_EQ(config->arrival, ArrivalMode::kOpenLoop);
  EXPECT_EQ(config->workers, 6);
  EXPECT_DOUBLE_EQ(config->rate_qps, 250);
  EXPECT_EQ(config->popularity.kind, PopularityKind::kZipf);
  EXPECT_DOUBLE_EQ(config->popularity.zipf_s, 1.3);
  EXPECT_TRUE(config->cache_enabled);
  EXPECT_EQ(config->cache_mb, 32u);
  EXPECT_EQ(config->graph.kind, GraphSpec::Kind::kDblp);
  EXPECT_EQ(config->graph.papers, 300);
  EXPECT_EQ(config->graph.authors, 200);
  EXPECT_EQ(config->graph.seed, 5u);
  ASSERT_EQ(config->classes.size(), 3u);
  const QueryClassSpec& topk = config->classes[0];
  EXPECT_EQ(topk.name, "hot_topk");
  EXPECT_EQ(topk.type, QueryType::kTopK);
  EXPECT_EQ(topk.path_spec, "C-P-A");
  EXPECT_EQ(topk.k, 7);
  EXPECT_DOUBLE_EQ(topk.weight, 0.5);
  EXPECT_DOUBLE_EQ(topk.deadline.mean_ms, 20);
  EXPECT_DOUBLE_EQ(topk.deadline.jitter_pct, 25);
  EXPECT_FALSE(topk.popularity.has_value());
  ASSERT_TRUE(config->classes[1].popularity.has_value());
  EXPECT_EQ(config->classes[1].popularity->kind, PopularityKind::kNurand);
  EXPECT_EQ(config->classes[2].type, QueryType::kPair);
}

TEST(WorkloadConfig, DefaultsAreSane) {
  Result<WorkloadConfig> config = ParseWorkloadConfig(
      "scenario tiny\nclass c type=pair path=A-P-A\n");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config->tenants, 1);
  EXPECT_EQ(config->arrival, ArrivalMode::kClosedLoop);
  EXPECT_TRUE(config->cache_enabled);
  EXPECT_EQ(config->cache_mb, 0u);  // unlimited
  EXPECT_EQ(config->popularity.kind, PopularityKind::kUniform);
}

struct BadConfigCase {
  const char* label;
  const char* text;
  const char* message_fragment;
};

TEST(WorkloadConfig, RejectsMalformedInput) {
  const BadConfigCase cases[] = {
      {"no scenario", "class c type=pair path=A-P-A\n", "no 'scenario"},
      {"no classes", "scenario s\nqueries 10\n", "no query classes"},
      {"unknown directive", "scenario s\nfrobnicate 3\n", "unknown directive"},
      {"unknown option",
       "scenario s\nclass c type=pair path=A-P-A thinkms=1\n",
       "unknown option"},
      {"duplicate class",
       "scenario s\nclass c type=pair path=A-P-A\nclass c type=pair path=A-P-A\n",
       "duplicate class"},
      {"bad type", "scenario s\nclass c type=magic path=A-P-A\n",
       "unknown class type"},
      {"missing path", "scenario s\nclass c type=pair\n", "needs path="},
      {"garbage queries", "scenario s\nqueries banana\n", "positive integer"},
      {"excess jitter",
       "scenario s\nclass c type=pair path=A-P-A deadline_ms=5 deadline_jitter_pct=150\n",
       "must be <= 100"},
      {"warmup too large",
       "scenario s\nqueries 10\nwarmup 10\nclass c type=pair path=A-P-A\n",
       "warmup must be smaller"},
      {"negative weight",
       "scenario s\nclass c type=pair path=A-P-A weight=-1\n", "weight"},
      {"bad arrival", "scenario s\narrival sideways\n", "unknown arrival mode"},
      {"bad cache", "scenario s\ncache maybe\n", "unknown cache mode"},
      {"bad popularity", "scenario s\npopularity pareto\n",
       "unknown popularity"},
  };
  for (const BadConfigCase& c : cases) {
    Result<WorkloadConfig> config = ParseWorkloadConfig(c.text);
    ASSERT_FALSE(config.ok()) << c.label;
    EXPECT_TRUE(config.status().IsInvalidArgument()) << c.label;
    EXPECT_NE(config.status().message().find(c.message_fragment),
              std::string::npos)
        << c.label << ": " << config.status().ToString();
  }
}

TEST(WorkloadConfig, ErrorsNameTheLine) {
  Result<WorkloadConfig> config =
      ParseWorkloadConfig("scenario s\n\n# comment\nqueries nope\n");
  ASSERT_FALSE(config.ok());
  EXPECT_NE(config.status().message().find("line 4"), std::string::npos)
      << config.status().ToString();
}

// ---------------------------------------------------------------------------
// Generators

TEST(Generators, DeriveStreamSeedSeparatesStreams) {
  const uint64_t a = DeriveStreamSeed(42, 0);
  const uint64_t b = DeriveStreamSeed(42, 1);
  const uint64_t c = DeriveStreamSeed(43, 0);
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_EQ(a, DeriveStreamSeed(42, 0));  // stable
}

TEST(Generators, NURandStaysInRangeAndIsDeterministic) {
  const Index n = 1000;
  NURandGenerator gen(n, /*run_seed=*/7);
  // A = smallest 2^k - 1 >= n/4 = 250 -> 255.
  EXPECT_EQ(gen.a(), 255u);
  Rng rng1(1), rng2(1);
  NURandGenerator same(n, 7);
  for (int i = 0; i < 2000; ++i) {
    const Index v = gen.Sample(rng1);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, n);
    ASSERT_EQ(v, same.Sample(rng2));
  }
}

TEST(Generators, NURandIsSkewed) {
  const Index n = 1000;
  NURandGenerator gen(n, 7);
  Rng rng(3);
  std::map<Index, int> counts;
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) counts[gen.Sample(rng)]++;
  // Every id stays reachable (the uniform term spans the domain), but the
  // OR term starves keys whose low bits are mostly zero — so some of the
  // 1000 keys never appear in 20k draws, and the hot keys run far above
  // the uniform expectation of draws/n = 20.
  EXPECT_LT(counts.size(), static_cast<size_t>(n));
  int max_count = 0;
  for (const auto& [id, count] : counts) max_count = std::max(max_count, count);
  EXPECT_GT(max_count, draws / static_cast<int>(n) * 4);
}

TEST(Generators, ZipfSamplerFavorsItsHotKey) {
  PopularitySampler sampler(PopularityKind::kZipf, 500, 1.2, /*run_seed=*/11);
  Rng rng(5);
  std::map<Index, int> counts;
  for (int i = 0; i < 20000; ++i) {
    const Index v = sampler.Sample(rng);
    ASSERT_GE(v, 0);
    ASSERT_LT(v, 500);
    counts[v]++;
  }
  int max_count = 0;
  for (const auto& [id, count] : counts) max_count = std::max(max_count, count);
  // Rank 1 of Zipf(1.2) carries >10% of the mass; uniform would give 40.
  EXPECT_GT(max_count, 1500);
}

TEST(Generators, UniformSamplerCoversTheDomain) {
  PopularitySampler sampler(PopularityKind::kUniform, 16, 1.0, 3);
  Rng rng(9);
  std::map<Index, int> counts;
  for (int i = 0; i < 4000; ++i) counts[sampler.Sample(rng)]++;
  EXPECT_EQ(counts.size(), 16u);
}

// ---------------------------------------------------------------------------
// Schedule determinism — the acceptance contract.

WorkloadConfig ScheduleConfig() {
  Result<WorkloadConfig> config = ParseWorkloadConfig(R"(
scenario sched
seed 77
tenants 3
queries 400
arrival open workers=4 rate_qps=500
popularity zipf s=1.1
class t type=topk path=C-P-A weight=0.5 k=5 deadline_ms=10 deadline_jitter_pct=50
class p type=pair path=A-P-A weight=0.3 deadline_ms=3
class s type=single path=A-P-C weight=0.2 popularity=nurand
)");
  EXPECT_TRUE(config.ok()) << config.status().ToString();
  return *config;
}

TEST(Schedule, IdenticalSeedsProduceIdenticalSchedules) {
  const WorkloadConfig config = ScheduleConfig();
  const std::vector<ClassDomain> domains = {{40, 300}, {300, 300}, {300, 40}};
  Result<Schedule> a = BuildSchedule(config, domains);
  Result<Schedule> b = BuildSchedule(config, domains);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->digest, b->digest);
  EXPECT_EQ(a->queries_per_class, b->queries_per_class);
  EXPECT_EQ(a->queries_per_tenant, b->queries_per_tenant);
  ASSERT_EQ(a->sources_per_class.size(), b->sources_per_class.size());
  for (size_t c = 0; c < a->sources_per_class.size(); ++c) {
    EXPECT_EQ(a->sources_per_class[c], b->sources_per_class[c]) << "class " << c;
  }
  ASSERT_EQ(a->specs.size(), 400u);
  for (size_t i = 0; i < a->specs.size(); ++i) {
    const QuerySpec& x = a->specs[i];
    const QuerySpec& y = b->specs[i];
    ASSERT_EQ(x.class_id, y.class_id) << i;
    ASSERT_EQ(x.tenant, y.tenant) << i;
    ASSERT_EQ(x.source, y.source) << i;
    ASSERT_EQ(x.target, y.target) << i;
    ASSERT_EQ(x.deadline_ms, y.deadline_ms) << i;
    ASSERT_EQ(x.arrival_us, y.arrival_us) << i;
    ASSERT_EQ(x.think_us, y.think_us) << i;
  }
}

TEST(Schedule, WorkerCountDoesNotChangeTheSchedule) {
  WorkloadConfig config = ScheduleConfig();
  const std::vector<ClassDomain> domains = {{40, 300}, {300, 300}, {300, 40}};
  Result<Schedule> base = BuildSchedule(config, domains);
  ASSERT_TRUE(base.ok());
  config.workers = 1;
  Result<Schedule> serial = BuildSchedule(config, domains);
  ASSERT_TRUE(serial.ok());
  EXPECT_EQ(base->digest, serial->digest);
}

TEST(Schedule, SeedChangesTheSchedule) {
  WorkloadConfig config = ScheduleConfig();
  const std::vector<ClassDomain> domains = {{40, 300}, {300, 300}, {300, 40}};
  Result<Schedule> a = BuildSchedule(config, domains);
  config.seed = 78;
  Result<Schedule> b = BuildSchedule(config, domains);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a->digest, b->digest);
}

TEST(Schedule, InvariantsHold) {
  const WorkloadConfig config = ScheduleConfig();
  const std::vector<ClassDomain> domains = {{40, 300}, {300, 300}, {300, 40}};
  Result<Schedule> schedule = BuildSchedule(config, domains);
  ASSERT_TRUE(schedule.ok());
  int64_t total_class = 0, total_tenant = 0;
  for (int64_t n : schedule->queries_per_class) total_class += n;
  for (int64_t n : schedule->queries_per_tenant) total_tenant += n;
  EXPECT_EQ(total_class, 400);
  EXPECT_EQ(total_tenant, 400);
  int64_t last_arrival = 0;
  for (const QuerySpec& spec : schedule->specs) {
    ASSERT_GE(spec.class_id, 0);
    ASSERT_LT(spec.class_id, 3);
    ASSERT_GE(spec.tenant, 0);
    ASSERT_LT(spec.tenant, 3);
    ASSERT_GE(spec.source, 0);
    ASSERT_LT(spec.source, domains[static_cast<size_t>(spec.class_id)].num_sources);
    if (spec.class_id == 1) {
      ASSERT_LT(spec.target, domains[1].num_targets);
    }
    // Open loop: Poisson arrivals are non-decreasing offsets.
    ASSERT_GE(spec.arrival_us, last_arrival);
    last_arrival = spec.arrival_us;
    if (spec.deadline_ms > 0 && spec.class_id == 0) {
      // jitter 50% around 10ms
      ASSERT_GE(spec.deadline_ms, 5.0);
      ASSERT_LE(spec.deadline_ms, 15.0);
    }
  }
  EXPECT_TRUE(std::any_of(schedule->specs.begin(), schedule->specs.end(),
                          [](const QuerySpec& s) { return s.tenant == 2; }));
}

TEST(Schedule, EmptyDomainFails) {
  const WorkloadConfig config = ScheduleConfig();
  const std::vector<ClassDomain> domains = {{0, 300}, {300, 300}, {300, 40}};
  Result<Schedule> schedule = BuildSchedule(config, domains);
  EXPECT_FALSE(schedule.ok());
}

TEST(Schedule, Fnv1a64MatchesReference) {
  // FNV-1a of "a": (offset ^ 0x61) * prime.
  EXPECT_EQ(Fnv1a64("a", 1), 0xaf63dc4c8601ec8cULL);
  EXPECT_EQ(Fnv1a64("", 0), 0xcbf29ce484222325ULL);
}

// ---------------------------------------------------------------------------
// Recorder

TEST(Recorder, ExactQuantilesAndOutcomeCounts) {
  LatencyRecorder recorder({"only"}, /*tenants=*/2);
  for (int i = 1; i <= 100; ++i) {
    recorder.Record(0, i % 2, static_cast<double>(i) * 1e-3,
                    i <= 90 ? QueryOutcome::kOk : QueryOutcome::kTruncated,
                    /*deadline_missed=*/i > 90);
  }
  const ClassStats stats = recorder.ClassReport(0, /*wall_seconds=*/2.0);
  EXPECT_EQ(stats.queries, 100);
  EXPECT_EQ(stats.ok, 90);
  EXPECT_EQ(stats.truncated, 10);
  EXPECT_EQ(stats.deadline_missed, 10);
  EXPECT_DOUBLE_EQ(stats.throughput_qps, 50.0);
  // Samples are 1..100 ms; interpolated quantiles over the sorted sample.
  EXPECT_NEAR(stats.p50_ms, 50.5, 0.01);
  EXPECT_NEAR(stats.p95_ms, 95.05, 0.01);
  EXPECT_NEAR(stats.p99_ms, 99.01, 0.01);
  EXPECT_NEAR(stats.max_ms, 100.0, 1e-9);
  EXPECT_NEAR(stats.mean_ms, 50.5, 0.01);
  const std::vector<TenantStats> tenants = recorder.TenantReport();
  ASSERT_EQ(tenants.size(), 2u);
  EXPECT_EQ(tenants[0].queries + tenants[1].queries, 100);
  EXPECT_EQ(recorder.total_recorded(), 100);
}

// ---------------------------------------------------------------------------
// End to end (small graph, pacing off)

TEST(WorkloadRunner, EndToEndSmallRun) {
  Result<WorkloadConfig> config = ParseWorkloadConfig(R"(
scenario tiny_e2e
graph dblp papers=120 authors=80 seed=11
seed 3
tenants 2
queries 120
warmup 20
arrival closed workers=4
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
  EXPECT_EQ(report->name, "tiny_e2e");
  EXPECT_EQ(report->total_queries, 100);  // 120 - 20 warmup
  EXPECT_GT(report->throughput_qps, 0);
  ASSERT_EQ(report->classes.size(), 2u);
  for (const ClassStats& cls : report->classes) {
    EXPECT_EQ(cls.errors, 0) << cls.name;
    EXPECT_GE(cls.p95_ms, cls.p50_ms) << cls.name;
    EXPECT_GE(cls.max_ms, cls.p99_ms) << cls.name;
  }
  int64_t tenant_total = 0;
  for (const TenantStats& t : report->tenants_stats) tenant_total += t.queries;
  EXPECT_EQ(tenant_total, 100);
  EXPECT_NE(report->schedule_digest, 0u);

  // The digest reported by a run equals the one from a fresh schedule build:
  // executing the workload does not perturb the schedule.
  Result<Schedule> schedule = (*runner)->BuildRunSchedule();
  ASSERT_TRUE(schedule.ok());
  EXPECT_EQ(report->schedule_digest, schedule->digest);
}

TEST(WorkloadRunner, RejectsBadMetaPath) {
  Result<WorkloadConfig> config = ParseWorkloadConfig(
      "scenario bad\ngraph dblp papers=60 authors=40\n"
      "class c type=pair path=X-Y-Z\n");
  ASSERT_TRUE(config.ok());
  Result<std::unique_ptr<WorkloadRunner>> runner =
      WorkloadRunner::Create(*config);
  ASSERT_FALSE(runner.ok());
  EXPECT_TRUE(runner.status().IsInvalidArgument());
  EXPECT_NE(runner.status().message().find("class 'c'"), std::string::npos);
}

TEST(WorkloadReport, JsonCarriesTheHeadlineNumbers) {
  ScenarioReport report;
  report.name = "jsontest";
  report.seed = 5;
  report.arrival = "closed";
  report.workers = 2;
  report.tenants = 1;
  report.total_queries = 10;
  report.wall_seconds = 1.0;
  report.throughput_qps = 10.0;
  report.schedule_digest = 0xabcdef;
  ClassStats cls;
  cls.name = "c1";
  cls.queries = 10;
  cls.p50_ms = 1.5;
  report.classes.push_back(cls);
  report.tenants_stats.push_back(TenantStats{0, 10});
  const std::string json = RenderWorkloadReportsJson({report});
  EXPECT_NE(json.find("\"jsontest\""), std::string::npos);
  EXPECT_NE(json.find("\"p50\": 1.5"), std::string::npos);
  EXPECT_NE(json.find("\"schedule_digest\": \"0x0000000000abcdef\""),
            std::string::npos);
  EXPECT_NE(json.find("\"scenarios\""), std::string::npos);
  EXPECT_NE(json.find("\"deadline_miss_rate\""), std::string::npos);
}

}  // namespace
}  // namespace hetesim::workload
