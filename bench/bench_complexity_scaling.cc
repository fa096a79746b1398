// Section 4.6 of the paper: complexity comparison. HeteSim computes one
// relevance matrix along a given path in O(l d n^2); SimRank iterates over
// ALL typed object pairs at once, O(k d n^2 T^4). Expected shape: HeteSim
// is orders of magnitude cheaper at every size and its advantage grows
// with network size; path length scales HeteSim roughly linearly; the
// sparse chain beats the dense chain on sparse networks and loses its
// edge as products densify.

#include <benchmark/benchmark.h>

#include "bench_util.h"

#include "baselines/simrank.h"
#include "core/hetesim.h"
#include "hin/metapath.h"
#include "matrix/chain_plan.h"
#include "matrix/ops.h"
#include "datagen/random_hin.h"

namespace {

using namespace hetesim;

// --- HeteSim full matrix vs SimRank over the whole network ---

void BM_HeteSimFullMatrix(benchmark::State& state) {
  const Index n = state.range(0);
  HinGraph g = RandomTripartite(n, n, n / 2, 8.0 / static_cast<double>(n), 7);
  HeteSimEngine engine(g);
  MetaPath abcba = MetaPath::Parse(g.schema(), "ABCBA").value();
  for (auto _ : state) {
    DenseMatrix scores = engine.Compute(abcba).value();
    benchmark::DoNotOptimize(scores.data().data());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_HeteSimFullMatrix)->Arg(50)->Arg(100)->Arg(200)->Arg(400)->Complexity();

void BM_SimRankAllPairs(benchmark::State& state) {
  const Index n = state.range(0);
  HinGraph g = RandomTripartite(n, n, n / 2, 8.0 / static_cast<double>(n), 7);
  HomogeneousView view = BuildHomogeneousView(g);
  SimRankOptions options;
  options.max_iterations = 5;
  for (auto _ : state) {
    DenseMatrix s = SimRankHeterogeneous(view, options);
    benchmark::DoNotOptimize(s.data().data());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SimRankAllPairs)->Arg(50)->Arg(100)->Arg(200)->Complexity();

// --- Path length scaling (the l in O(l d n^2)) ---

void BM_HeteSimPathLength(benchmark::State& state) {
  const int length = static_cast<int>(state.range(0));
  HinGraph g = RandomTripartite(150, 150, 150, 0.05, 9);
  HeteSimEngine engine(g);
  // Build a zig-zag path A-B-A-B-... of the requested length.
  std::vector<RelationStep> steps;
  RelationId ab = g.schema().RelationByName("ab").value();
  for (int i = 0; i < length; ++i) {
    steps.push_back({ab, i % 2 == 0});
  }
  MetaPath path = MetaPath::FromSteps(g.schema(), std::move(steps)).value();
  for (auto _ : state) {
    DenseMatrix scores = engine.Compute(path).value();
    benchmark::DoNotOptimize(scores.data().data());
  }
}
BENCHMARK(BM_HeteSimPathLength)->DenseRange(1, 8, 1);

// --- Sparse vs dense chain products (ablation from DESIGN.md §7) ---

void BM_ChainSparse(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 100.0;
  HinGraph g = RandomTripartite(300, 300, 300, density, 11);
  MetaPath path = MetaPath::Parse(g.schema(), "ABCBA").value();
  std::vector<SparseMatrix> chain = TransitionChain(g, path);
  for (auto _ : state) {
    SparseMatrix product = MultiplyChain(chain).value();
    benchmark::DoNotOptimize(product.NumNonZeros());
  }
}
BENCHMARK(BM_ChainSparse)->Arg(1)->Arg(5)->Arg(20);

/// Left-to-right plan that switches to the dense representation at the
/// first product and stays dense: the dense arm of the ablation.
ChainPlan AllDenseLeftToRight(int num_inputs) {
  ChainPlan plan;
  plan.num_inputs = num_inputs;
  for (int t = 0; t + 1 < num_inputs; ++t) {
    ChainPlanStep step;
    step.left = t == 0 ? 0 : num_inputs + t - 1;
    step.right = t + 1;
    step.dense_output = true;
    plan.steps.push_back(step);
  }
  return plan;
}

void BM_ChainDense(benchmark::State& state) {
  const double density = static_cast<double>(state.range(0)) / 100.0;
  HinGraph g = RandomTripartite(300, 300, 300, density, 11);
  MetaPath path = MetaPath::Parse(g.schema(), "ABCBA").value();
  std::vector<SparseMatrix> chain = TransitionChain(g, path);
  const ChainPlan plan = AllDenseLeftToRight(static_cast<int>(chain.size()));
  for (auto _ : state) {
    SparseMatrix product = ExecuteChainPlan(chain, plan).value();
    benchmark::DoNotOptimize(product.NumNonZeros());
  }
}
BENCHMARK(BM_ChainDense)->Arg(1)->Arg(5)->Arg(20);

}  // namespace

HETESIM_BENCH_MAIN("complexity_scaling")
