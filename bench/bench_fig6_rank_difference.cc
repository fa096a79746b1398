// Fig. 6 of the paper: average rank difference from the paper-count
// ground truth for the top-200 authors of each of the 14 conferences,
// HeteSim vs PCRW (PCRW averaged over its two direction-dependent
// rankings, as in the paper). Expected shape: HeteSim's bars are lower
// than PCRW's on most conferences — "HeteSim more accurately reveals the
// relative importance of author-conference pairs".

#include <cstdio>

#include <benchmark/benchmark.h>

#include "baselines/pcrw.h"
#include "bench_util.h"
#include "core/hetesim.h"
#include "hin/metapath.h"
#include "learn/metrics.h"

namespace {

using namespace hetesim;

void PrintFig6() {
  const AcmDataset& acm = bench::Acm();
  HeteSimEngine engine(acm.graph);
  MetaPath cvpa = MetaPath::Parse(acm.graph.schema(), "CVPA").value();
  MetaPath apvc = cvpa.Reverse();
  DenseMatrix counts_t = acm.PaperCounts().Transpose();  // conference x author
  DenseMatrix hetesim_scores = engine.Compute(cvpa).value();
  DenseMatrix pcrw_ca = PcrwMatrix(acm.graph, cvpa);
  DenseMatrix pcrw_ac_t = PcrwMatrix(acm.graph, apvc).Transpose();
  const int top_n = 200;

  bench::Banner(
      "Fig 6: average rank difference vs paper-count ground truth "
      "(top-200 authors per conference; lower is better)");
  std::printf("%-10s %12s %12s   winner\n", "conference", "HeteSim", "PCRW(avg)");
  int hetesim_wins = 0;
  double hetesim_sum = 0.0;
  double pcrw_sum = 0.0;
  for (Index c = 0; c < acm.graph.NumNodes(acm.conference); ++c) {
    std::vector<double> truth = counts_t.Row(c);
    double hetesim_diff =
        AverageRankDifference(truth, hetesim_scores.Row(c), top_n).value();
    double pcrw_diff =
        0.5 * (AverageRankDifference(truth, pcrw_ca.Row(c), top_n).value() +
               AverageRankDifference(truth, pcrw_ac_t.Row(c), top_n).value());
    hetesim_sum += hetesim_diff;
    pcrw_sum += pcrw_diff;
    if (hetesim_diff <= pcrw_diff) ++hetesim_wins;
    std::printf("%-10s %12.2f %12.2f   %s\n",
                acm.graph.NodeName(acm.conference, c).c_str(), hetesim_diff,
                pcrw_diff, hetesim_diff <= pcrw_diff ? "HeteSim" : "PCRW");
  }
  std::printf("\nmean over 14 conferences: HeteSim %.2f vs PCRW %.2f "
              "(HeteSim wins %d/14)\n",
              hetesim_sum / 14.0, pcrw_sum / 14.0, hetesim_wins);
}

void BM_Fig6FullPipeline(benchmark::State& state) {
  const AcmDataset& acm = bench::Acm();
  HeteSimEngine engine(acm.graph);
  MetaPath cvpa = MetaPath::Parse(acm.graph.schema(), "CVPA").value();
  for (auto _ : state) {
    DenseMatrix scores = engine.Compute(cvpa).value();
    benchmark::DoNotOptimize(scores.data().data());
  }
}
BENCHMARK(BM_Fig6FullPipeline);

}  // namespace

int main(int argc, char** argv) {
  PrintFig6();
  return hetesim::bench::BenchMain(argc, argv, "fig6_rank_difference");
}
