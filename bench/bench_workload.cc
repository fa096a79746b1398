// bench_workload — runs the checked-in workload scenarios and writes
// BENCH_workload.json: per-class throughput, p50/p95/p99/p999 latency,
// deadline-miss and cancellation rates, plus the process metrics registry
// (spliced in via bench_util.h, like every other BENCH artifact).
//
// Unlike the microbenches this is not a google-benchmark program: each
// "iteration" is a whole scenario (thousands of queries over minutes at
// full scale), so the driver runs each scenario exactly once and reports
// the harness's own statistics.
//
// Usage:
//   bench_workload [--queries N] [--workers N] [--realtime]
//                  [--out FILE.json] [SCENARIO.workload ...]
//
// With no positional arguments it runs every checked-in scenario under
// bench/workloads/ at a reduced scale (default --queries 400, think times
// and arrival pacing disabled) so CI finishes in seconds; pass
// --queries 0 --realtime to run the full configured scale with real
// pacing. $HETESIM_BENCH_OUT overrides the output path like the other
// bench binaries.

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/string_util.h"
#include "workload/config.h"
#include "workload/report.h"
#include "workload/runner.h"

namespace {

using namespace hetesim;

// Every scenario checked in under bench/workloads/, in report order.
constexpr const char* kScenarios[] = {
    "steady_state_dblp.workload",    "hot_key_skew.workload",
    "deadline_storm.workload",       "cache_hostile_adhoc.workload",
    "memory_pressure_soak.workload", "multi_tenant_fairness.workload",
    "overload_shedding.workload",    "single_source_topk.workload",
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "bench_workload: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  workload::RunOptions options;
  options.override_queries = 400;  // reduced scale by default (CI-friendly)
  options.realtime = false;
  std::string out_path = "BENCH_workload.json";
  if (const char* env = std::getenv("HETESIM_BENCH_OUT"); env != nullptr) {
    out_path = env;
  }
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_workload: %s needs a value\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--queries") {
      Result<int64_t> queries = ParseInt64(value("--queries"));
      if (!queries.ok() || *queries < 0) return Fail("--queries: bad value");
      options.override_queries = *queries;
    } else if (arg == "--workers") {
      Result<int64_t> workers = ParseInt64(value("--workers"));
      if (!workers.ok() || *workers < 0 || *workers > 4096) {
        return Fail("--workers: bad value");
      }
      options.override_workers = static_cast<int>(*workers);
    } else if (arg == "--realtime") {
      options.realtime = true;
    } else if (arg == "--out") {
      out_path = value("--out");
    } else if (arg.rfind("--", 0) == 0) {
      return Fail("unknown flag '" + arg + "'");
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty()) {
    for (const char* name : kScenarios) {
      files.push_back(std::string(HETESIM_WORKLOAD_DIR) + "/" + name);
    }
  }

  std::vector<workload::ScenarioReport> reports;
  for (const std::string& file : files) {
    Result<workload::WorkloadConfig> config =
        workload::LoadWorkloadConfigFromFile(file);
    if (!config.ok()) return Fail(config.status().ToString());
    Result<std::unique_ptr<workload::WorkloadRunner>> runner =
        workload::WorkloadRunner::Create(*config);
    if (!runner.ok()) return Fail(file + ": " + runner.status().ToString());
    Result<workload::ScenarioReport> report = (*runner)->Run(options);
    if (!report.ok()) return Fail(file + ": " + report.status().ToString());
    std::printf("%s", workload::RenderScenarioSummary(*report).c_str());
    reports.push_back(std::move(*report));
  }

  if (Status status = workload::WriteWorkloadReports(out_path, reports);
      !status.ok()) {
    return Fail(status.ToString());
  }
  bench::MergeMetricsIntoBenchJson(out_path);
  std::printf("wrote %zu scenario report(s) to %s\n", reports.size(),
              out_path.c_str());
  return 0;
}
