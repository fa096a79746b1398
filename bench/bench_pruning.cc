// Section 4.6 of the paper: pruning. "The related objects to a searched
// object are a very small percentage of all objects in the target type.
// The pruning techniques can be used to prune those unpromising objects."
// `TopKSearcher::Query` is that pruning in sparse form (DESIGN.md §14): it
// scatters the source's row of the left half through the inverted index,
// so it only ever scores targets that share a middle object with the
// source. This bench measures it against the exhaustive oracle
// (`QueryExhaustive`, which scores every target from a dense source row).
//
// Graph: the perfbench reference network (DBLP-style, 80,000 papers,
// 40,000 authors, seed 11). Sources: a uniform mix of the source type's
// objects that write or appear in at least one paper, plus the type's hub
// (the object with the most papers), on A-P-A, A-P-C-P-A, A-P-T-P-A and
// C-P-A. Expected shape: candidates examined a small fraction of the
// targets for the mix, and Query time following the source's reach rather
// than the type sizes; the hub is the worst case.

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/topk.h"
#include "datagen/dblp_generator.h"
#include "hin/metapath.h"

namespace {

using namespace hetesim;

constexpr int kTopK = 10;
/// Sources in the uniform mix (evenly spaced over the eligible ids).
constexpr size_t kMixSize = 256;
constexpr const char* kPaths[] = {"A-P-A", "A-P-C-P-A", "A-P-T-P-A", "C-P-A"};

const HinGraph& ReferenceGraph() {
  static const DblpDataset* const kDblp = [] {
    DblpConfig config;
    config.num_papers = 80000;
    config.num_authors = 40000;
    config.seed = 11;
    return new DblpDataset(*GenerateDblp(config));
  }();
  return kDblp->graph;
}

/// A prepared path plus its source mix and hub.
struct PathCase {
  MetaPath path;
  std::unique_ptr<TopKSearcher> searcher;
  std::vector<Index> mix;
  Index hub = 0;
};

const PathCase& CaseFor(const std::string& spec) {
  static std::map<std::string, PathCase>* const kCases =
      new std::map<std::string, PathCase>();
  auto it = kCases->find(spec);
  if (it != kCases->end()) return it->second;
  const HinGraph& graph = ReferenceGraph();
  MetaPath path = MetaPath::Parse(graph.schema(), spec).value();
  // Eligible sources: a non-empty row towards papers (perfbench's rule).
  const MetaPath to_paper =
      MetaPath::Parse(graph.schema(), std::string(1, spec[0]) + "-P").value();
  const SparseMatrix& adjacency = graph.StepAdjacency(to_paper.StepAt(0));
  std::vector<Index> eligible;
  Index hub = 0;
  for (Index id = 0; id < adjacency.rows(); ++id) {
    if (adjacency.RowNnz(id) > 0) eligible.push_back(id);
    if (adjacency.RowNnz(id) > adjacency.RowNnz(hub)) hub = id;
  }
  std::vector<Index> mix;
  const size_t count = std::min(kMixSize, eligible.size());
  for (size_t i = 0; i < count; ++i) {
    mix.push_back(eligible[i * eligible.size() / count]);
  }
  TopKSearcher searcher = TopKSearcher::Prepare(graph, path).value();
  PathCase entry{std::move(path),
                 std::make_unique<TopKSearcher>(std::move(searcher)),
                 std::move(mix), hub};
  return kCases->emplace(spec, std::move(entry)).first->second;
}

void PrintPruningStats() {
  bench::Banner(
      "Pruning: candidates examined by top-10 Query vs all targets "
      "(80k-paper reference graph)");
  std::printf("%-11s %8s %12s %10s %14s %10s\n", "path", "targets",
              "mix-cand", "fraction", "hub-cand", "fraction");
  for (const char* spec : kPaths) {
    const PathCase& c = CaseFor(spec);
    double mix_candidates = 0.0;
    for (Index s : c.mix) {
      mix_candidates += static_cast<double>(
          c.searcher->Query(s, kTopK).value().candidates_examined);
    }
    mix_candidates /= static_cast<double>(c.mix.size());
    const double hub_candidates = static_cast<double>(
        c.searcher->Query(c.hub, kTopK).value().candidates_examined);
    const double targets = static_cast<double>(c.searcher->num_targets());
    std::printf("%-11s %8.0f %12.1f %9.2f%% %14.0f %9.2f%%\n", spec, targets,
                mix_candidates, 100.0 * mix_candidates / targets,
                hub_candidates, 100.0 * hub_candidates / targets);
  }
}

/// One iteration = one top-10 query; sources cycle through the mix (or
/// repeat the hub). `candidates` is the mean candidates examined.
template <bool kExhaustive>
void RunQueries(benchmark::State& state, const PathCase& c,
                const std::vector<Index>& sources) {
  size_t next = 0;
  double candidates = 0.0;
  for (auto _ : state) {
    const Index source = sources[next];
    next = (next + 1) % sources.size();
    const TopKResult result =
        (kExhaustive ? c.searcher->QueryExhaustive(source, kTopK)
                     : c.searcher->Query(source, kTopK))
            .value();
    candidates += static_cast<double>(result.candidates_examined);
    benchmark::DoNotOptimize(result.items.data());
  }
  state.counters["candidates"] =
      benchmark::Counter(candidates, benchmark::Counter::kAvgIterations);
}

void BM_Query(benchmark::State& state, const char* spec) {
  const PathCase& c = CaseFor(spec);
  RunQueries<false>(state, c, c.mix);
}

void BM_Exhaustive(benchmark::State& state, const char* spec) {
  const PathCase& c = CaseFor(spec);
  RunQueries<true>(state, c, c.mix);
}

void BM_QueryHub(benchmark::State& state, const char* spec) {
  const PathCase& c = CaseFor(spec);
  RunQueries<false>(state, c, {c.hub});
}

void BM_ExhaustiveHub(benchmark::State& state, const char* spec) {
  const PathCase& c = CaseFor(spec);
  RunQueries<true>(state, c, {c.hub});
}

}  // namespace

int main(int argc, char** argv) {
  PrintPruningStats();
  for (const char* spec : kPaths) {
    const std::string name(spec);
    benchmark::RegisterBenchmark(("BM_Query/" + name).c_str(), BM_Query, spec)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(("BM_Exhaustive/" + name).c_str(),
                                 BM_Exhaustive, spec)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(("BM_QueryHub/" + name).c_str(), BM_QueryHub,
                                 spec)
        ->Unit(benchmark::kMicrosecond);
    benchmark::RegisterBenchmark(("BM_ExhaustiveHub/" + name).c_str(),
                                 BM_ExhaustiveHub, spec)
        ->Unit(benchmark::kMicrosecond);
  }
  return hetesim::bench::BenchMain(argc, argv, "pruning");
}
