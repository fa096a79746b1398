// bench_observability — the DESIGN.md §12 overhead contract, measured.
//
// Recording metrics on the hot path must cost at most ~2% of query time:
// every site is guarded by one relaxed atomic load, and the per-row SpGEMM
// tallies accumulate chunk-locally and flush once per chunk. This bench
// measures the full-matrix DBLP APCPA `Compute` with recording enabled
// versus the runtime kill switch (`SetMetricsEnabled(false)`), which keeps
// the guard load but skips every increment — an upper bound on what
// building with -DHETESIM_METRICS=OFF removes.
//
// The measured pair is written into BENCH_core.json as custom context keys
// (`hetesim_metrics_on_seconds`, `hetesim_metrics_off_seconds`,
// `hetesim_metrics_overhead_pct`) so CI artifacts carry the contract.

#include <algorithm>
#include <cstdio>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "core/hetesim.h"
#include "hin/metapath.h"

namespace {

using namespace hetesim;

MetaPath Apcpa() {
  return MetaPath::Parse(bench::Dblp().graph.schema(), "APCPA").value();
}

void BM_ComputeApcpaMetricsOn(benchmark::State& state) {
  const DblpDataset& dblp = bench::Dblp();
  HeteSimEngine engine(dblp.graph);
  const MetaPath path = Apcpa();
  SetMetricsEnabled(true);
  for (auto _ : state) {
    auto scores = engine.Compute(path).value();
    benchmark::DoNotOptimize(scores.rows());
  }
}
BENCHMARK(BM_ComputeApcpaMetricsOn);

void BM_ComputeApcpaMetricsOff(benchmark::State& state) {
  const DblpDataset& dblp = bench::Dblp();
  HeteSimEngine engine(dblp.graph);
  const MetaPath path = Apcpa();
  SetMetricsEnabled(false);
  for (auto _ : state) {
    auto scores = engine.Compute(path).value();
    benchmark::DoNotOptimize(scores.rows());
  }
  SetMetricsEnabled(true);
}
BENCHMARK(BM_ComputeApcpaMetricsOff);

/// Median of `reps` full-matrix APCPA computes. The median (not the mean)
/// keeps one cold-cache or scheduler-preempted repetition from deciding a
/// 2% comparison.
double MedianComputeSeconds(const HeteSimEngine& engine, const MetaPath& path,
                            int reps) {
  std::vector<double> times;
  times.reserve(static_cast<size_t>(reps));
  for (int r = 0; r < reps; ++r) {
    Stopwatch stopwatch;
    auto scores = engine.Compute(path).value();
    benchmark::DoNotOptimize(scores.rows());
    times.push_back(stopwatch.ElapsedSeconds());
  }
  std::sort(times.begin(), times.end());
  return times[static_cast<size_t>(reps) / 2];
}

}  // namespace

int main(int argc, char** argv) {
  const DblpDataset& dblp = hetesim::bench::Dblp();
  const MetaPath path = Apcpa();
  HeteSimEngine engine(dblp.graph);
  // One warm-up compute so neither arm pays first-touch costs.
  engine.Compute(path).value();

  constexpr int kReps = 15;
  SetMetricsEnabled(false);
  const double off = MedianComputeSeconds(engine, path, kReps);
  SetMetricsEnabled(true);
  const double on = MedianComputeSeconds(engine, path, kReps);
  const double overhead_pct = off > 0.0 ? (on - off) / off * 100.0 : 0.0;

  hetesim::bench::Banner("Observability overhead (DBLP APCPA Compute)");
  std::printf("  metrics on : %.6f s (median of %d)\n", on, kReps);
  std::printf("  metrics off: %.6f s (median of %d)\n", off, kReps);
  std::printf("  overhead   : %+.2f%% (contract: <= 2%%)\n", overhead_pct);

  char value[64];
  std::snprintf(value, sizeof(value), "%.6f", on);
  benchmark::AddCustomContext("hetesim_metrics_on_seconds", value);
  std::snprintf(value, sizeof(value), "%.6f", off);
  benchmark::AddCustomContext("hetesim_metrics_off_seconds", value);
  std::snprintf(value, sizeof(value), "%.2f", overhead_pct);
  benchmark::AddCustomContext("hetesim_metrics_overhead_pct", value);
  return hetesim::bench::BenchMain(argc, argv, "core");
}
