// Approximate-truncation ablation (Section 4.6: "approximate algorithms
// [can] fasten the search with a small loss of accuracy"): dropping
// frontier entries below epsilon times each hop's largest entry during
// propagation (`HeteSimOptions::truncation`, a relative per-hop threshold).
// Expected shape: query time falls as epsilon grows (sparser frontiers);
// the score error grows with the dropped mass and the top-1 answer
// survives until epsilon approaches the spread of a hop's probabilities.

#include <cmath>
#include <cstdio>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/hetesim.h"
#include "hin/metapath.h"

namespace {

using namespace hetesim;

void PrintAccuracySweep() {
  const AcmDataset& acm = bench::Acm();
  MetaPath path = MetaPath::Parse(acm.graph.schema(), "APVCVPA").value();
  HeteSimEngine exact(acm.graph);
  bench::Banner(
      "Truncation ablation: accuracy vs epsilon (A-P-V-C-V-P-A, 100 sources)");
  std::printf("%10s %14s %14s %12s\n", "epsilon", "max |error|", "mean |error|",
              "top1 agree");
  for (double epsilon : {1e-6, 1e-5, 1e-4, 1e-3, 1e-2}) {
    HeteSimOptions options;
    options.truncation = epsilon;
    HeteSimEngine approx(acm.graph, options);
    double max_error = 0.0;
    double total_error = 0.0;
    Index comparisons = 0;
    int top1_agreements = 0;
    for (Index s = 0; s < 100; ++s) {
      std::vector<double> exact_scores = exact.ComputeSingleSource(path, s).value();
      std::vector<double> approx_scores =
          approx.ComputeSingleSource(path, s).value();
      size_t exact_best = 0;
      size_t approx_best = 0;
      for (size_t t = 0; t < exact_scores.size(); ++t) {
        const double error = std::abs(exact_scores[t] - approx_scores[t]);
        max_error = std::max(max_error, error);
        total_error += error;
        ++comparisons;
        if (exact_scores[t] > exact_scores[exact_best]) exact_best = t;
        if (approx_scores[t] > approx_scores[approx_best]) approx_best = t;
      }
      if (exact_best == approx_best) ++top1_agreements;
    }
    std::printf("%10.0e %14.6f %14.8f %11d%%\n", epsilon, max_error,
                total_error / static_cast<double>(comparisons), top1_agreements);
  }
}

void BM_SingleSourceTruncation(benchmark::State& state) {
  const AcmDataset& acm = bench::Acm();
  MetaPath path = MetaPath::Parse(acm.graph.schema(), "APVCVPA").value();
  HeteSimOptions options;
  // range(0) encodes epsilon as 10^-range; 0 means exact.
  options.truncation =
      state.range(0) == 0 ? 0.0 : std::pow(10.0, -static_cast<double>(state.range(0)));
  HeteSimEngine engine(acm.graph, options);
  Index source = 0;
  for (auto _ : state) {
    auto scores = engine.ComputeSingleSource(path, source).value();
    benchmark::DoNotOptimize(scores.data());
    source = (source + 1) % acm.graph.NumNodes(acm.author);
  }
}
BENCHMARK(BM_SingleSourceTruncation)->Arg(0)->Arg(5)->Arg(4)->Arg(3)->Arg(2);

}  // namespace

int main(int argc, char** argv) {
  PrintAccuracySweep();
  return hetesim::bench::BenchMain(argc, argv, "approx_truncation");
}
