#include "matrix/chain_plan.h"

#include <atomic>
#include <chrono>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/context.h"
#include "matrix/cost_model.h"
#include "matrix/ops.h"
#include "matrix/spgemm.h"
#include "test_util.h"

namespace hetesim {
namespace {

using std::chrono::steady_clock;

/// A row-stochastic random matrix: fractional values exercise real
/// floating-point accumulation instead of integer-exact sums.
SparseMatrix RandomStochastic(Index rows, Index cols, double p, uint64_t seed) {
  return testing::RandomBipartiteAdjacency(rows, cols, p, seed).RowNormalized();
}

void ExpectBitwiseEqual(const SparseMatrix& a, const SparseMatrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  EXPECT_EQ(a.row_ptr(), b.row_ptr());
  EXPECT_EQ(a.col_idx(), b.col_idx());
  EXPECT_EQ(a.values(), b.values());
}

/// Each step's (left, right) operand slots, in execution order.
std::vector<std::pair<int, int>> Operands(const ChainPlan& plan) {
  std::vector<std::pair<int, int>> operands;
  for (const ChainPlanStep& step : plan.steps) {
    operands.emplace_back(step.left, step.right);
  }
  return operands;
}

// ---------------------------------------------------------------------------
// Kernel selection and per-kernel equivalence.
// ---------------------------------------------------------------------------

TEST(ChooseRowKernel, ThresholdsArePiecewise) {
  // Tiny fill: merge, regardless of width.
  EXPECT_EQ(ChooseRowKernel(0, 1000), RowKernel::kSortedMerge);
  EXPECT_EQ(ChooseRowKernel(32, 1000), RowKernel::kSortedMerge);
  // Medium fill over a wide output: hash.
  EXPECT_EQ(ChooseRowKernel(33, 1000), RowKernel::kHash);
  EXPECT_EQ(ChooseRowKernel(61, 1000), RowKernel::kHash);
  // Fill approaching the width: dense scratch.
  EXPECT_EQ(ChooseRowKernel(62, 1000), RowKernel::kDenseScratch);
  EXPECT_EQ(ChooseRowKernel(40, 100), RowKernel::kDenseScratch);
}

TEST(AdaptiveSpGemm, EveryForcedKernelIsBitwiseIdenticalToSeed) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SparseMatrix a = RandomStochastic(60, 80, 0.15, seed);
    SparseMatrix b = RandomStochastic(80, 50, 0.2, seed + 100);
    const SparseMatrix reference = a.Multiply(b);
    for (RowKernel kernel :
         {RowKernel::kSortedMerge, RowKernel::kHash, RowKernel::kDenseScratch}) {
      SpGemmOptions options;
      options.forced_kernel = kernel;
      for (int threads : {1, 3, 8, 0}) {
        SCOPED_TRACE(::testing::Message()
                     << "seed=" << seed << " kernel=" << static_cast<int>(kernel)
                     << " threads=" << threads);
        ExpectBitwiseEqual(
            MultiplySparseAdaptive(a, b, threads, QueryContext::Background(), options)
                .value(),
            reference);
      }
    }
    // Default per-row adaptivity agrees too.
    for (int threads : {1, 4, 0}) {
      ExpectBitwiseEqual(MultiplySparseAdaptive(a, b, threads).value(), reference);
    }
  }
}

TEST(AdaptiveSpGemm, LiveBudgetedContextMatchesBackgroundBitwise) {
  SparseMatrix a = RandomStochastic(170, 40, 0.2, 7);
  SparseMatrix b = RandomStochastic(40, 90, 0.15, 8);
  const SparseMatrix reference = a.Multiply(b);
  MemoryBudget budget(64 << 20);
  const QueryContext ctx =
      QueryContext::Background().WithDeadlineAfterMs(60'000).WithBudget(&budget);
  for (int threads : {1, 4, 0}) {
    SCOPED_TRACE(threads);
    Result<SparseMatrix> product = MultiplySparseAdaptive(a, b, threads, ctx);
    ASSERT_TRUE(product.ok()) << product.status().ToString();
    ExpectBitwiseEqual(*product, reference);
    ExpectBitwiseEqual(MultiplySparseAdaptive(a, b, threads).value(), reference);
    // The whole output was charged while it was built (the sequential run
    // appends three 64-row stripes to one buffer), and released on return.
    EXPECT_GE(budget.peak_bytes(),
              static_cast<size_t>(reference.NumNonZeros()) *
                  (sizeof(Index) + sizeof(double)));
    EXPECT_EQ(budget.used_bytes(), 0u);
  }
}

TEST(DenseKernels, MatchSeedCounterpartsBitwise) {
  SparseMatrix a = RandomStochastic(50, 60, 0.2, 11);
  SparseMatrix b = RandomStochastic(60, 45, 0.25, 12);
  const DenseMatrix a_dense = a.ToDense();
  const DenseMatrix b_dense = b.ToDense();
  // The seed kernel visits each output column's contributions in the same
  // order as every dense fill, so the densified seed product is the
  // bitwise reference for all but the dense-dense kernel.
  const DenseMatrix reference = a.Multiply(b).ToDense();
  for (int threads : {1, 4, 0}) {
    SCOPED_TRACE(threads);
    EXPECT_EQ(MultiplySparseSparseDense(a, b, threads).value().data(),
              reference.data());
    EXPECT_EQ(MultiplyDenseSparseParallel(a_dense, b, threads).value().data(),
              reference.data());
    EXPECT_EQ(MultiplySparseDenseParallel(a, b_dense, threads).value().data(),
              reference.data());
    EXPECT_EQ(MultiplyDenseDenseParallel(a_dense, b_dense, threads).value().data(),
              a_dense.Multiply(b_dense).data());
  }
}

// ---------------------------------------------------------------------------
// Planner decisions.
// ---------------------------------------------------------------------------

TEST(PlanChain, SingleMatrixIsALeafPlan) {
  SparseMatrix a = RandomStochastic(6, 5, 0.5, 1);
  ChainPlan plan = PlanChain({a});
  EXPECT_EQ(plan.num_inputs, 1);
  EXPECT_TRUE(plan.steps.empty());
  EXPECT_EQ(plan.predicted_cost, 0.0);
  ExpectBitwiseEqual(ExecuteChainPlan({a}, plan).value(), a);
}

TEST(PlanChain, PicksKnownOptimalOrder) {
  // Classic matrix-chain fixture: (40x2)(2x40)(40x3). Left-to-right pays
  // for a 40x40 intermediate; right association keeps it 2x3. The planner
  // must pick the right-nested tree. Density switching is disabled so the
  // smoke test pins the association alone.
  SparseMatrix a = RandomStochastic(40, 2, 0.9, 21);
  SparseMatrix b = RandomStochastic(2, 40, 0.9, 22);
  SparseMatrix c = RandomStochastic(40, 3, 0.9, 23);
  ChainPlanOptions options;
  options.dense_switch_density = 2.0;  // never switch
  ChainPlan plan = PlanChain({a, b, c}, options);
  // (0.(1.2)): slot 3 = 1.2, then 0.3.
  EXPECT_EQ(Operands(plan), (std::vector<std::pair<int, int>>{{1, 2}, {0, 3}}));
}

TEST(PlanChain, DeterministicAndTieBreaksTowardLeftSplit) {
  // Fully dense square estimates: every interval product is 10x10 with 100
  // predicted entries, so all five association trees cost exactly the
  // same. The tie must deterministically break to the smallest split at
  // every level — a leaf left operand, i.e. the right-nested tree.
  ChainPlanOptions options;
  options.dense_switch_density = 2.0;
  MatrixEstimate full;
  full.rows = 10;
  full.cols = 10;
  full.nnz = 100.0;
  full.exact = true;
  std::vector<MatrixEstimate> same(4, full);
  ChainPlan plan = PlanChain(same, options);
  // (0.(1.(2.3))): slot 4 = 2.3, slot 5 = 1.4, then 0.5.
  EXPECT_EQ(Operands(plan),
            (std::vector<std::pair<int, int>>{{2, 3}, {1, 4}, {0, 5}}));
  // Same inputs, same plan.
  EXPECT_EQ(Operands(PlanChain(same, options)), Operands(plan));
}

TEST(PlanChain, DensifyingIntermediateSwitchesRepresentation) {
  // A dense-ish product of stochastic matrices: predicted density exceeds
  // the default 0.25 threshold, so the plan marks products dense.
  SparseMatrix a = RandomStochastic(30, 30, 0.4, 41);
  SparseMatrix b = RandomStochastic(30, 30, 0.4, 42);
  SparseMatrix c = RandomStochastic(30, 30, 0.4, 43);
  ChainPlan plan = PlanChain({a, b, c});
  bool any_dense = false;
  for (const ChainPlanStep& step : plan.steps) any_dense |= step.dense_output;
  EXPECT_TRUE(any_dense);
  // Dense execution still agrees with the seed product.
  const SparseMatrix reference = MultiplyChainLeftToRight({a, b, c});
  EXPECT_TRUE(ExecuteChainPlan({a, b, c}, plan).value().ApproxEquals(reference, 1e-9));
}

TEST(PlanChain, EmptyChainDies) {
  EXPECT_DEATH({ (void)PlanChain(std::vector<SparseMatrix>{}); }, "CHECK failed");
}

// ---------------------------------------------------------------------------
// Every legal parenthesization, every representation mix, 1e-9 agreement.
// ---------------------------------------------------------------------------

/// A hand-built association tree over inputs [i, j]: `steps` in execution
/// order (slots follow the ChainPlan convention), `root` is the slot of
/// the interval's product.
struct TreeBuild {
  std::vector<std::pair<int, int>> steps;
  int root = 0;
};

/// Enumerates all binary association trees over the inclusive interval
/// [i, j] of an n-input chain (Catalan many).
std::vector<TreeBuild> EnumerateTrees(int i, int j, int n) {
  if (i == j) return {TreeBuild{{}, i}};
  std::vector<TreeBuild> out;
  for (int s = i; s < j; ++s) {
    for (const TreeBuild& left : EnumerateTrees(i, s, n)) {
      for (const TreeBuild& right : EnumerateTrees(s + 1, j, n)) {
        TreeBuild combined;
        combined.steps = left.steps;
        const int shift = static_cast<int>(left.steps.size());
        auto shifted = [&](int slot) { return slot < n ? slot : slot + shift; };
        for (const auto& [l, r] : right.steps) {
          combined.steps.emplace_back(shifted(l), shifted(r));
        }
        combined.steps.emplace_back(left.root, shifted(right.root));
        combined.root = n + static_cast<int>(combined.steps.size()) - 1;
        out.push_back(std::move(combined));
      }
    }
  }
  return out;
}

ChainPlan PlanFromTree(const TreeBuild& tree, int n, unsigned dense_mask) {
  ChainPlan plan;
  plan.num_inputs = n;
  for (size_t t = 0; t < tree.steps.size(); ++t) {
    ChainPlanStep step;
    step.left = tree.steps[t].first;
    step.right = tree.steps[t].second;
    step.dense_output = (dense_mask >> t) & 1u;
    plan.steps.push_back(step);
  }
  return plan;
}

TEST(ExecuteChainPlan, EveryParenthesizationAndRepresentationMixAgrees) {
  // Length-4 chain: 5 association trees x 8 dense/sparse mixes, each at
  // two thread counts, all within 1e-9 of the seed left-to-right product.
  const int n = 4;
  for (uint64_t seed : {5u, 6u}) {
    std::vector<SparseMatrix> chain;
    chain.push_back(RandomStochastic(25, 40, 0.2, seed));
    chain.push_back(RandomStochastic(40, 15, 0.3, seed + 10));
    chain.push_back(RandomStochastic(15, 35, 0.25, seed + 20));
    chain.push_back(RandomStochastic(35, 20, 0.2, seed + 30));
    const DenseMatrix reference = MultiplyChainLeftToRight(chain).ToDense();
    const std::vector<TreeBuild> trees = EnumerateTrees(0, n - 1, n);
    ASSERT_EQ(trees.size(), 5u);  // Catalan(3)
    for (size_t tree_id = 0; tree_id < trees.size(); ++tree_id) {
      for (unsigned dense_mask = 0; dense_mask < 8; ++dense_mask) {
        ChainPlan plan = PlanFromTree(trees[tree_id], n, dense_mask);
        for (int threads : {1, 4}) {
          SCOPED_TRACE(::testing::Message()
                       << "seed=" << seed << " tree=" << tree_id
                       << " mask=" << dense_mask << " threads=" << threads);
          SparseMatrix product = ExecuteChainPlan(chain, plan, threads).value();
          EXPECT_LE(product.ToDense().MaxAbsDiff(reference), 1e-9);
        }
      }
    }
  }
}

/// Left-to-right plan that densifies at the first product and stays dense.
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

TEST(ExecuteChainPlan, AllDensePlanMatchesSparseChain) {
  SparseMatrix a = testing::RandomBipartiteAdjacency(4, 6, 0.4, 26);
  SparseMatrix b = testing::RandomBipartiteAdjacency(6, 5, 0.4, 27);
  SparseMatrix c = testing::RandomBipartiteAdjacency(5, 3, 0.4, 28);
  EXPECT_TRUE(ExecuteChainPlan({a, b, c}, AllDenseLeftToRight(3))
                  .value()
                  .ApproxEquals(MultiplyChain({a, b, c}).value(), 1e-12));
  EXPECT_TRUE(ExecuteChainPlan({a}, AllDenseLeftToRight(1)).value().ApproxEquals(a));
  EXPECT_TRUE(ExecuteChainPlan({a, b}, AllDenseLeftToRight(2))
                  .value()
                  .ApproxEquals(MultiplyChain({a, b}).value(), 1e-12));
}

TEST(ExecuteChainPlan, FixedPlanIsBitwiseDeterministicAcrossThreadCounts) {
  std::vector<SparseMatrix> chain;
  chain.push_back(RandomStochastic(80, 60, 0.1, 61));
  chain.push_back(RandomStochastic(60, 70, 0.15, 62));
  chain.push_back(RandomStochastic(70, 40, 0.2, 63));
  chain.push_back(RandomStochastic(40, 55, 0.15, 64));
  chain.push_back(RandomStochastic(55, 30, 0.2, 65));
  const ChainPlan plan = PlanChain(chain);
  const SparseMatrix baseline = ExecuteChainPlan(chain, plan, 1).value();
  MemoryBudget budget(64 << 20);
  const QueryContext budgeted =
      QueryContext::Background().WithDeadlineAfterMs(60'000).WithBudget(&budget);
  for (int threads : {2, 4, 8, 0}) {
    SCOPED_TRACE(threads);
    ExpectBitwiseEqual(ExecuteChainPlan(chain, plan, threads).value(), baseline);
    // A live deadline and a budget change nothing but the accounting.
    Result<SparseMatrix> with_ctx =
        ExecuteChainPlan(chain, plan, threads, budgeted);
    ASSERT_TRUE(with_ctx.ok()) << with_ctx.status().ToString();
    ExpectBitwiseEqual(*with_ctx, baseline);
  }
  EXPECT_EQ(budget.used_bytes(), 0u);
  // The public chain entry point rides the same plan: bitwise identical at
  // any thread count.
  ExpectBitwiseEqual(MultiplyChain(chain).value(), baseline);
  ExpectBitwiseEqual(MultiplyChain(chain, 4).value(), baseline);
}

TEST(MultiplyChain, PlannedResultMatchesSeedOrderWithin1e9) {
  for (uint64_t seed : {71u, 72u, 73u}) {
    std::vector<SparseMatrix> chain;
    chain.push_back(RandomStochastic(90, 30, 0.1, seed));
    chain.push_back(RandomStochastic(30, 80, 0.2, seed + 1));
    chain.push_back(RandomStochastic(80, 25, 0.15, seed + 2));
    chain.push_back(RandomStochastic(25, 60, 0.25, seed + 3));
    EXPECT_TRUE(MultiplyChain(chain).value().ApproxEquals(
        MultiplyChainLeftToRight(chain),
                                                  1e-9));
  }
}

// ---------------------------------------------------------------------------
// QueryContext semantics through planned execution.
// ---------------------------------------------------------------------------

TEST(ExecuteChainPlanContext, PreCancelledContextFailsFast) {
  std::vector<SparseMatrix> chain = {RandomStochastic(30, 30, 0.2, 81),
                                     RandomStochastic(30, 30, 0.2, 82)};
  QueryContext ctx;
  ctx.Cancel();
  Result<SparseMatrix> product = MultiplyChain(chain, 2, ctx);
  EXPECT_TRUE(product.status().IsCancelled()) << product.status().ToString();
}

TEST(ExecuteChainPlanContext, ExpiredDeadlineSurfaces) {
  std::vector<SparseMatrix> chain = {RandomStochastic(30, 30, 0.2, 83),
                                     RandomStochastic(30, 30, 0.2, 84)};
  const QueryContext ctx =
      QueryContext::Background().WithDeadlineAfterMs(0);
  Result<SparseMatrix> product = MultiplyChain(chain, 2, ctx);
  EXPECT_TRUE(product.status().IsDeadlineExceeded()) << product.status().ToString();
}

TEST(ExecuteChainPlanContext, TinyBudgetIsResourceExhausted) {
  std::vector<SparseMatrix> chain = {RandomStochastic(100, 100, 0.3, 85),
                                     RandomStochastic(100, 100, 0.3, 86),
                                     RandomStochastic(100, 100, 0.3, 87)};
  MemoryBudget budget(128);  // far below any chunk or dense intermediate
  const QueryContext ctx = QueryContext::Background().WithBudget(&budget);
  Result<SparseMatrix> product = MultiplyChain(chain, 1, ctx);
  EXPECT_TRUE(product.status().IsResourceExhausted()) << product.status().ToString();
  EXPECT_EQ(budget.used_bytes(), 0u);  // all reservations released on unwind
}

TEST(ExecuteChainPlanContext, ConcurrentCancelStopsPlanMidExecution) {
  // A worker grinds planned length-4 chain products under one context; the
  // main thread cancels mid-flight. Kernels poll per chunk and the
  // executor re-checks between steps, so the worker must observe Cancelled
  // within one chunk's worth of work (asserted loosely against hangs).
  std::vector<SparseMatrix> chain;
  chain.push_back(RandomStochastic(300, 300, 0.05, 91));
  chain.push_back(RandomStochastic(300, 300, 0.05, 92));
  chain.push_back(RandomStochastic(300, 300, 0.05, 93));
  chain.push_back(RandomStochastic(300, 300, 0.05, 94));
  QueryContext ctx;
  std::atomic<bool> started{false};
  Status final_status;
  steady_clock::time_point finished;
  std::thread worker([&] {
    for (;;) {
      Result<SparseMatrix> product = MultiplyChain(chain, 4, ctx);
      started.store(true, std::memory_order_release);
      if (!product.ok()) {
        final_status = product.status();
        finished = steady_clock::now();
        return;
      }
    }
  });
  while (!started.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  const steady_clock::time_point cancel_time = steady_clock::now();
  ctx.Cancel();
  worker.join();
  EXPECT_TRUE(final_status.IsCancelled()) << final_status.ToString();
  EXPECT_LT(std::chrono::duration<double>(finished - cancel_time).count(), 5.0);
}

// ---------------------------------------------------------------------------
// Cost model.
// ---------------------------------------------------------------------------

TEST(CostModel, EstimateOfIsExact) {
  SparseMatrix a = RandomStochastic(12, 9, 0.3, 95);
  MatrixEstimate est = EstimateOf(a);
  EXPECT_EQ(est.rows, 12);
  EXPECT_EQ(est.cols, 9);
  EXPECT_TRUE(est.exact);
  EXPECT_DOUBLE_EQ(est.nnz, static_cast<double>(a.NumNonZeros()));
}

TEST(CostModel, DensityPropagationIsMonotoneAndBounded) {
  MatrixEstimate a{100, 50, 1000.0, true};   // density 0.2
  MatrixEstimate b{50, 80, 2000.0, true};    // density 0.5
  MatrixEstimate ab = EstimateProduct(a, b);
  EXPECT_EQ(ab.rows, 100);
  EXPECT_EQ(ab.cols, 80);
  EXPECT_FALSE(ab.exact);
  EXPECT_GT(ab.Density(), a.Density() * b.Density());  // union over k terms
  EXPECT_LE(ab.Density(), 1.0);
  // Full inputs produce a full output.
  MatrixEstimate full_a{10, 10, 100.0, true};
  MatrixEstimate full_b{10, 10, 100.0, true};
  EXPECT_DOUBLE_EQ(EstimateProduct(full_a, full_b).Density(), 1.0);
}

TEST(CostModel, EstimatedFlopsMatchExactOnUniformRows) {
  // Identity rows are perfectly uniform, so the estimate is exact.
  SparseMatrix a = RandomStochastic(20, 30, 0.2, 96);
  SparseMatrix b = SparseMatrix::Identity(30);
  EXPECT_DOUBLE_EQ(EstimateProductFlops(EstimateOf(a), EstimateOf(b)),
                   ProductFlops(a, b));
}

}  // namespace
}  // namespace hetesim
