// Section 4.6 of the paper: pruning. "The related objects to a searched
// object are a very small percentage of all objects in the target type.
// The pruning techniques can be used to prune those unpromising objects."
// Expected shape: the pruned top-k search examines a fraction of the
// target type yet returns exactly the exhaustive answer; speedup grows as
// the source's reach gets sparser (shorter paths, rarer sources). The
// frontier executor (DESIGN.md §14) sharpens the same idea: it only ever
// touches candidates reachable from the source, and its monotone bound
// lets it stop folding middle mass before the reached set is exhausted
// (`bound_exit`), so its candidates-examined column should sit at or
// below the pruned one.

#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/materialize.h"
#include "core/topk.h"
#include "hin/metapath.h"

namespace {

using namespace hetesim;

Result<TopKSearcher> PrepareFrontier(const HinGraph& graph,
                                     const MetaPath& path,
                                     PathMatrixCache* cache = nullptr) {
  HeteSimOptions options;
  options.algo = RelevanceAlgo::kFrontier;
  return TopKSearcher::Prepare(graph, path, options, QueryContext::Background(),
                               cache);
}

void PrintPruningStats() {
  const AcmDataset& acm = bench::Acm();
  bench::Banner(
      "Pruning ablation: candidates examined, pruned vs frontier top-10");
  std::printf("%-14s %10s %12s %14s %12s %12s\n", "path", "targets",
              "pruned-cand", "frontier-cand", "fraction", "bound-exits");
  for (const char* spec : {"A-P-V-C", "A-P-A", "A-P-T", "A-P-V-C-V-P-A"}) {
    MetaPath path = MetaPath::Parse(acm.graph.schema(), spec).value();
    TopKSearcher searcher = TopKSearcher::Prepare(acm.graph, path).value();
    TopKSearcher frontier = PrepareFrontier(acm.graph, path).value();
    // Average candidate count over 50 sources.
    double candidates = 0.0;
    double frontier_candidates = 0.0;
    long long bound_exits = 0;
    for (Index s = 0; s < 50; ++s) {
      candidates +=
          static_cast<double>(searcher.Query(s, 10).value().candidates_examined);
      const TopKResult result = frontier.Query(s, 10).value();
      frontier_candidates += static_cast<double>(result.candidates_examined);
      bound_exits += result.bound_exit ? 1 : 0;
    }
    candidates /= 50.0;
    frontier_candidates /= 50.0;
    std::printf("%-14s %10lld %12.1f %14.1f %11.1f%% %9lld/50\n", spec,
                static_cast<long long>(searcher.num_targets()), candidates,
                frontier_candidates,
                100.0 * frontier_candidates /
                    static_cast<double>(searcher.num_targets()),
                bound_exits);
  }
}

// Ad-hoc decomposition reuse: warm the cache with the reach matrix of a
// prefix sub-path, then prepare a longer never-seen path through the same
// cache. The planner should probe the prefix/suffix partial keys, fold the
// cached A-P product into the frontier chain, and account the bytes it did
// not recompute — numbers that also land in BENCH_pruning.json via the
// metrics registry splice.
void PrintReuseStats() {
  const AcmDataset& acm = bench::Acm();
  bench::Banner("Ad-hoc meta-path reuse: cached-prefix fold into A-P-V-C-V-P-A");
  PathMatrixCache cache;
  const MetaPath prefix = MetaPath::Parse(acm.graph.schema(), "A-P").value();
  (void)cache.GetReach(acm.graph, prefix);
  const MetaPath path =
      MetaPath::Parse(acm.graph.schema(), "A-P-V-C-V-P-A").value();
  TopKSearcher frontier = PrepareFrontier(acm.graph, path, &cache).value();
  (void)frontier.Query(0, 10).value();
  const PathMatrixCache::Stats stats = cache.stats();
  std::printf(
      "prefix probes %zu (hits %zu), suffix probes %zu (hits %zu), "
      "%zu bytes served from partials\n",
      stats.prefix_probes, stats.prefix_probe_hits, stats.suffix_probes,
      stats.suffix_probe_hits, stats.partial_bytes_saved);
}

void BM_TopKPruned(benchmark::State& state) {
  const AcmDataset& acm = bench::Acm();
  MetaPath path = MetaPath::Parse(acm.graph.schema(), "APT").value();
  TopKSearcher searcher = TopKSearcher::Prepare(acm.graph, path).value();
  Index source = 0;
  for (auto _ : state) {
    TopKResult result = searcher.Query(source, 10).value();
    benchmark::DoNotOptimize(result.items.data());
    source = (source + 1) % acm.graph.NumNodes(acm.author);
  }
}
BENCHMARK(BM_TopKPruned);

void BM_TopKExhaustive(benchmark::State& state) {
  const AcmDataset& acm = bench::Acm();
  MetaPath path = MetaPath::Parse(acm.graph.schema(), "APT").value();
  TopKSearcher searcher = TopKSearcher::Prepare(acm.graph, path).value();
  Index source = 0;
  for (auto _ : state) {
    TopKResult result = searcher.QueryExhaustive(source, 10).value();
    benchmark::DoNotOptimize(result.items.data());
    source = (source + 1) % acm.graph.NumNodes(acm.author);
  }
}
BENCHMARK(BM_TopKExhaustive);

void BM_TopKFrontier(benchmark::State& state) {
  const AcmDataset& acm = bench::Acm();
  MetaPath path = MetaPath::Parse(acm.graph.schema(), "APT").value();
  TopKSearcher searcher = PrepareFrontier(acm.graph, path).value();
  Index source = 0;
  for (auto _ : state) {
    TopKResult result = searcher.Query(source, 10).value();
    benchmark::DoNotOptimize(result.items.data());
    source = (source + 1) % acm.graph.NumNodes(acm.author);
  }
}
BENCHMARK(BM_TopKFrontier);

void BM_TopKPrunedLongPath(benchmark::State& state) {
  const AcmDataset& acm = bench::Acm();
  MetaPath path = MetaPath::Parse(acm.graph.schema(), "APVCVPA").value();
  TopKSearcher searcher = TopKSearcher::Prepare(acm.graph, path).value();
  Index source = 0;
  for (auto _ : state) {
    TopKResult result = searcher.Query(source, 10).value();
    benchmark::DoNotOptimize(result.items.data());
    source = (source + 1) % acm.graph.NumNodes(acm.author);
  }
}
BENCHMARK(BM_TopKPrunedLongPath);

void BM_TopKExhaustiveLongPath(benchmark::State& state) {
  const AcmDataset& acm = bench::Acm();
  MetaPath path = MetaPath::Parse(acm.graph.schema(), "APVCVPA").value();
  TopKSearcher searcher = TopKSearcher::Prepare(acm.graph, path).value();
  Index source = 0;
  for (auto _ : state) {
    TopKResult result = searcher.QueryExhaustive(source, 10).value();
    benchmark::DoNotOptimize(result.items.data());
    source = (source + 1) % acm.graph.NumNodes(acm.author);
  }
}
BENCHMARK(BM_TopKExhaustiveLongPath);

void BM_TopKFrontierLongPath(benchmark::State& state) {
  const AcmDataset& acm = bench::Acm();
  MetaPath path = MetaPath::Parse(acm.graph.schema(), "APVCVPA").value();
  TopKSearcher searcher = PrepareFrontier(acm.graph, path).value();
  Index source = 0;
  for (auto _ : state) {
    TopKResult result = searcher.Query(source, 10).value();
    benchmark::DoNotOptimize(result.items.data());
    source = (source + 1) % acm.graph.NumNodes(acm.author);
  }
}
BENCHMARK(BM_TopKFrontierLongPath);

}  // namespace

int main(int argc, char** argv) {
  PrintPruningStats();
  PrintReuseStats();
  return hetesim::bench::BenchMain(argc, argv, "pruning");
}
