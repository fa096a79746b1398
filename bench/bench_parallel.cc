// Parallel-execution ablation, two axes:
//
//  1. Thread scaling of the full-matrix HeteSim computation (SpGEMM of the
//     two reachable matrices + normalization sweep, both row-parallel).
//     Near-linear speedup while chunks outweigh per-dispatch fixed cost,
//     saturating at the hardware thread count; results are bitwise
//     identical at any thread count (tested in test_parallel.cc).
//
//  2. Dispatch cost of the persistent pool on a DBLP-scale workload:
//     `BM_ComputeDblpPooled` times a whole query per thread count and
//     `BM_DispatchOverheadPooled` isolates the per-region cost the pool
//     amortizes across queries.

#include <atomic>
#include <chrono>
#include <thread>

#include <benchmark/benchmark.h>

#include "bench_util.h"

#include "common/context.h"
#include "common/parallel.h"
#include "common/thread_pool.h"
#include "core/hetesim.h"
#include "datagen/dblp_generator.h"
#include "datagen/random_hin.h"
#include "hin/metapath.h"
#include "matrix/spgemm.h"

namespace {

using namespace hetesim;

const HinGraph& BigGraph() {
  static const HinGraph* const kGraph =
      new HinGraph(RandomTripartite(1500, 1500, 400, 0.01, 31));
  return *kGraph;
}

/// The DBLP-scale network (DESIGN.md §4 scale knobs): the workload for
/// the dispatch-cost benches.
const HinGraph& DblpGraph() {
  static const HinGraph* const kGraph = [] {
    DblpConfig config;
    return new HinGraph(std::move(GenerateDblp(config)->graph));
  }();
  return *kGraph;
}

void BM_ComputeThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const HinGraph& g = BigGraph();
  MetaPath path = MetaPath::Parse(g.schema(), "ABCBA").value();
  HeteSimOptions options;
  options.num_threads = threads;
  HeteSimEngine engine(g, options);
  for (auto _ : state) {
    DenseMatrix scores = engine.Compute(path).value();
    benchmark::DoNotOptimize(scores.data().data());
  }
}
BENCHMARK(BM_ComputeThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_SpGemmThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  SparseMatrix a = RandomBipartiteAdjacency(3000, 3000, 0.004, 32);
  SparseMatrix b = RandomBipartiteAdjacency(3000, 3000, 0.004, 33);
  for (auto _ : state) {
    SparseMatrix product = MultiplySparseAdaptive(a, b, threads).value();
    benchmark::DoNotOptimize(product.NumNonZeros());
  }
}
BENCHMARK(BM_SpGemmThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// --- Pooled dispatch on the DBLP-scale generator ---

void BM_ComputeDblpPooled(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const HinGraph& g = DblpGraph();
  // Author-paper-conference-paper-author: a middle type small enough that
  // the per-region dispatch cost is a visible fraction of the query.
  MetaPath path = MetaPath::Parse(g.schema(), "APCPA").value();
  HeteSimOptions options;
  options.num_threads = threads;
  HeteSimEngine engine(g, options);
  for (auto _ : state) {
    DenseMatrix scores = engine.Compute(path).value();
    benchmark::DoNotOptimize(scores.data().data());
  }
}
BENCHMARK(BM_ComputeDblpPooled)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// --- Raw per-region dispatch cost (the quantity the pool amortizes) ---

void BM_DispatchOverheadPooled(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  std::vector<double> data(4096, 1.0);
  GrainOptions grain;
  grain.cost_per_element = 1e6;  // force a real multi-block dispatch
  for (auto _ : state) {
    ParallelFor(
        0, static_cast<int64_t>(data.size()), threads,
        [&data](int64_t begin, int64_t end) {
          double acc = 0.0;
          for (int64_t i = begin; i < end; ++i) acc += data[static_cast<size_t>(i)];
          benchmark::DoNotOptimize(acc);
        },
        grain);
  }
}
BENCHMARK(BM_DispatchOverheadPooled)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

// --- Cancellation latency: Cancel() to pool quiescence ---
//
// A worker grinds SpGEMM products under one QueryContext; the measured
// interval runs from the main thread's Cancel() to the worker observing the
// cancellation and returning — i.e. until every in-flight chunk has drained
// and the region has joined. The documented bound is one chunk's worth of
// work; results land in BENCH_resilience.json.

void BM_CancellationLatency(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  SparseMatrix a = RandomBipartiteAdjacency(2500, 2500, 0.01, 41);
  SparseMatrix b = RandomBipartiteAdjacency(2500, 2500, 0.01, 42);
  for (auto _ : state) {
    QueryContext ctx;
    std::atomic<bool> started{false};
    std::thread worker([&] {
      // Loop products so the cancel almost always lands mid-region; the
      // between-products window is caught by the next region's entry check.
      for (;;) {
        started.store(true, std::memory_order_release);
        Result<SparseMatrix> product = MultiplySparseAdaptive(a, b, threads, ctx);
        if (!product.ok()) return;
        benchmark::DoNotOptimize(product->NumNonZeros());
      }
    });
    while (!started.load(std::memory_order_acquire)) std::this_thread::yield();
    const auto cancel_time = std::chrono::steady_clock::now();
    ctx.Cancel();
    worker.join();
    state.SetIterationTime(std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - cancel_time)
                               .count());
  }
}
BENCHMARK(BM_CancellationLatency)->Arg(1)->Arg(4)->Arg(8)->UseManualTime();

}  // namespace

HETESIM_BENCH_MAIN("parallel")
