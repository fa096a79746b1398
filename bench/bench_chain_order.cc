// Chain-order planning and kernel-selection ablation (DESIGN.md §10).
//
// Every scenario pits the seed execution strategy — left-to-right
// association through the pure-CSR Gustavson kernel
// (`MultiplyChainLeftToRight`) — against the cost-planned pipeline
// (`PlanChain` + `ExecuteChainPlan`): DP association order, per-row
// accumulator selection, and the CSR→dense representation switch once a
// predicted intermediate crosses the density threshold. Planning runs
// inside the timed region for the planned variants, so the reported gap is
// end-to-end query cost, not kernel cost with planning amortized away.
//
//  1. DBLP-scale long paths (the acceptance workload): the APCPA and
//     APCPAPA transition chains funnel through the 20-conference hub type,
//     so every intermediate past the funnel is near-dense. Left-to-right
//     CSR execution pays per-row sorts and index churn on ~full rows; the
//     planner switches those intermediates to dense streaming kernels.
//  2. Hub-heavy adversarial chain: shape-skewed factors where left-to-right
//     materializes a huge near-dense product first while the optimal order
//     keeps every intermediate tiny. This isolates the association-order
//     win from the representation win.
//  3. Odd-path decomposition chain: the left half of an odd relevance path
//     (Definition 5/6) ends in the sqrt-weighted edge-object incidence, the
//     shape HeteSim actually multiplies for odd paths.
//
// Results are checked in as BENCH_kernels.json; regenerate from a Release
// build with
//   bench_chain_order --benchmark_repetitions=5
//       --benchmark_report_aggregates_only=true
//       --benchmark_out=BENCH_kernels.json --benchmark_out_format=json

#include <map>
#include <string>
#include <utility>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "core/path_matrix.h"
#include "datagen/random_hin.h"
#include "hin/metapath.h"
#include "matrix/chain_plan.h"
#include "matrix/ops.h"
#include "matrix/sparse.h"

namespace {

using namespace hetesim;

const HinGraph& DblpGraph() { return bench::Dblp().graph; }

/// Transition chain for `path_str` over the shared DBLP-scale network,
/// built once per path and cached for the lifetime of the process.
const std::vector<SparseMatrix>& DblpChain(const char* path_str) {
  static auto* const kCache =
      new std::map<std::string, std::vector<SparseMatrix>>();
  auto it = kCache->find(path_str);
  if (it == kCache->end()) {
    MetaPath path = MetaPath::Parse(DblpGraph().schema(), path_str).value();
    it = kCache->emplace(path_str, TransitionChain(DblpGraph(), path)).first;
  }
  return it->second;
}

/// The sequential seed oracle; its rows carry the `/1` thread argument
/// only so they line up with the `Planned/1` rows.
void RunSeedLeftToRight(benchmark::State& state,
                        const std::vector<SparseMatrix>& chain) {
  for (auto _ : state) {
    SparseMatrix product = MultiplyChainLeftToRight(chain);
    benchmark::DoNotOptimize(product.NumNonZeros());
  }
}

void RunPlanned(benchmark::State& state,
                const std::vector<SparseMatrix>& chain) {
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ChainPlan plan = PlanChain(chain);
    SparseMatrix product = ExecuteChainPlan(chain, plan, threads).value();
    benchmark::DoNotOptimize(product.NumNonZeros());
  }
}

// --- 1. DBLP-scale long paths -------------------------------------------

// Length-4 author→author path through the conference funnel: once the
// walker passes the 20-dimensional C type, intermediates are near-dense
// and the planner switches representation.
void BM_DblpApcpaSeedLeftToRight(benchmark::State& state) {
  RunSeedLeftToRight(state, DblpChain("APCPA"));
}
BENCHMARK(BM_DblpApcpaSeedLeftToRight)->Arg(1)->UseRealTime();

void BM_DblpApcpaPlanned(benchmark::State& state) {
  RunPlanned(state, DblpChain("APCPA"));
}
BENCHMARK(BM_DblpApcpaPlanned)->Arg(1)->Arg(4)->UseRealTime();

// Length-6 variant: two more author-paper hops after the funnel keep the
// running product dense for longer, widening the gap.
void BM_DblpApcpapaSeedLeftToRight(benchmark::State& state) {
  RunSeedLeftToRight(state, DblpChain("APCPAPA"));
}
BENCHMARK(BM_DblpApcpapaSeedLeftToRight)->Arg(1)->UseRealTime();

void BM_DblpApcpapaPlanned(benchmark::State& state) {
  RunPlanned(state, DblpChain("APCPAPA"));
}
BENCHMARK(BM_DblpApcpapaPlanned)->Arg(1)->Arg(4)->UseRealTime();

// Planning alone, to show its O(l^3) DP is noise next to execution.
void BM_DblpApcpaPlanOnly(benchmark::State& state) {
  const std::vector<SparseMatrix>& chain = DblpChain("APCPA");
  for (auto _ : state) {
    ChainPlan plan = PlanChain(chain);
    benchmark::DoNotOptimize(plan.predicted_cost);
  }
}
BENCHMARK(BM_DblpApcpaPlanOnly);

// --- 2. Hub-heavy adversarial chain -------------------------------------

// (2000x50)(50x2000)(2000x50)(50x50): left-to-right materializes the
// 2000x2000 near-dense rank-bottlenecked product of the first two factors;
// the planner associates right-first so no intermediate exceeds 2000x50.
const std::vector<SparseMatrix>& HubChain() {
  static const auto* const kChain = new std::vector<SparseMatrix>{
      RandomBipartiteAdjacency(2000, 50, 0.06, 71).RowNormalized(),
      RandomBipartiteAdjacency(50, 2000, 0.06, 72).RowNormalized(),
      RandomBipartiteAdjacency(2000, 50, 0.06, 73).RowNormalized(),
      RandomBipartiteAdjacency(50, 50, 0.20, 74).RowNormalized(),
  };
  return *kChain;
}

void BM_HubChainSeedLeftToRight(benchmark::State& state) {
  RunSeedLeftToRight(state, HubChain());
}
BENCHMARK(BM_HubChainSeedLeftToRight)->Arg(1)->UseRealTime();

void BM_HubChainPlanned(benchmark::State& state) {
  RunPlanned(state, HubChain());
}
BENCHMARK(BM_HubChainPlanned)->Arg(1)->Arg(4)->UseRealTime();

// --- 3. Odd-path decomposition chain ------------------------------------

// APCPAP has five atomic relations, so DecomposePath splits the middle
// C-P relation through an edge-object type E (Definition 6); the left
// chain A → E is three factors ending in the sqrt-weighted incidence.
const std::vector<SparseMatrix>& OddLeftChain() {
  static const auto* const kChain = [] {
    MetaPath path = MetaPath::Parse(DblpGraph().schema(), "APCPAP").value();
    PathDecomposition decomposition = DecomposePath(DblpGraph(), path);
    return new std::vector<SparseMatrix>(
        std::move(decomposition.left_transitions));
  }();
  return *kChain;
}

void BM_OddPathLeftSeedLeftToRight(benchmark::State& state) {
  RunSeedLeftToRight(state, OddLeftChain());
}
BENCHMARK(BM_OddPathLeftSeedLeftToRight)->Arg(1)->UseRealTime();

void BM_OddPathLeftPlanned(benchmark::State& state) {
  RunPlanned(state, OddLeftChain());
}
BENCHMARK(BM_OddPathLeftPlanned)->Arg(1)->Arg(4)->UseRealTime();

}  // namespace

HETESIM_BENCH_MAIN("chain_order")
