#include "matrix/chain_plan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace hetesim {

namespace {

/// Planner/executor instruments (DESIGN.md §12). Predicted totals come
/// from the deterministic cost model, actual totals from the materialized
/// products, so predicted-vs-actual drift is readable straight off the
/// exposition. Dense steps report cells (their storage/work unit) instead
/// of nnz.
struct PlanMetrics {
  Counter& plans;
  Counter& steps;
  Counter& dense_steps;
  Counter& predicted_nnz;
  Counter& actual_nnz;
  Counter& dense_cells;
};

PlanMetrics& GlobalPlanMetrics() {
  static PlanMetrics metrics{
      MetricsRegistry::Global().GetCounter("hetesim_plan_plans_total"),
      MetricsRegistry::Global().GetCounter("hetesim_plan_steps_total"),
      MetricsRegistry::Global().GetCounter("hetesim_plan_dense_steps_total"),
      MetricsRegistry::Global().GetCounter("hetesim_plan_predicted_nnz_total"),
      MetricsRegistry::Global().GetCounter("hetesim_plan_actual_nnz_total"),
      MetricsRegistry::Global().GetCounter("hetesim_plan_dense_cells_total"),
  };
  return metrics;
}

/// DP cell for the inclusive input interval [i, j].
struct Interval {
  double total_cost = 0.0;
  int split = -1;  // s: interval splits as [i, s] * [s+1, j]; -1 for leaves
  MatrixEstimate estimate;
  bool dense = false;
};

/// Model cost of producing `[i, s] * [s+1, j]` given the operand cells,
/// plus the resulting estimate/representation. The estimated Gustavson
/// work prices sparse operands; dense operands pay the streaming kernels'
/// exact multiply-add counts. Dense outputs additionally pay a per-cell
/// allocation/zeroing term, sparse outputs a per-entry materialization
/// term.
struct StepCost {
  double cost = 0.0;
  MatrixEstimate estimate;
  bool dense = false;
};

StepCost PriceStep(const Interval& left, const Interval& right,
                   const ChainPlanOptions& options) {
  StepCost step;
  step.estimate = EstimateProduct(left.estimate, right.estimate);
  step.dense = left.dense || right.dense ||
               step.estimate.Density() >= options.dense_switch_density;
  const double cells = static_cast<double>(step.estimate.rows) *
                       static_cast<double>(step.estimate.cols);
  if (!left.dense && !right.dense) {
    const double flops = EstimateProductFlops(left.estimate, right.estimate);
    if (step.dense) {
      step.cost = flops * options.dense_flop_cost + cells * options.dense_cell_cost;
    } else {
      step.cost = flops * options.sparse_flop_cost +
                  step.estimate.nnz * options.sparse_entry_cost;
    }
  } else {
    double flops = 0.0;
    if (left.dense && !right.dense) {
      flops = static_cast<double>(left.estimate.rows) * right.estimate.nnz;
    } else if (!left.dense && right.dense) {
      flops = left.estimate.nnz * static_cast<double>(right.estimate.cols);
    } else {
      flops = static_cast<double>(left.estimate.rows) *
              static_cast<double>(left.estimate.cols) *
              static_cast<double>(right.estimate.cols);
    }
    step.cost = flops * options.dense_flop_cost + cells * options.dense_cell_cost;
  }
  return step;
}

/// Post-order plan emission for interval [i, j]; returns the slot holding
/// that interval's product.
int EmitSteps(const std::vector<std::vector<Interval>>& best, int i, int j,
              int num_inputs, std::vector<ChainPlanStep>* steps) {
  if (i == j) return i;
  const Interval& cell = best[static_cast<size_t>(i)][static_cast<size_t>(j)];
  const int left = EmitSteps(best, i, cell.split, num_inputs, steps);
  const int right = EmitSteps(best, cell.split + 1, j, num_inputs, steps);
  ChainPlanStep step;
  step.left = left;
  step.right = right;
  step.dense_output = cell.dense;
  step.estimate = cell.estimate;
  steps->push_back(step);
  return num_inputs + static_cast<int>(steps->size()) - 1;
}

/// One operand of a planned product: a view of either an input matrix or a
/// previously produced intermediate. Exactly one pointer is set.
struct Operand {
  const SparseMatrix* sparse = nullptr;
  const DenseMatrix* dense = nullptr;
};

/// Storage for step results.
struct Intermediate {
  SparseMatrix sparse;
  DenseMatrix dense;
  bool is_dense = false;
};

}  // namespace

ChainPlan PlanChain(const std::vector<MatrixEstimate>& inputs,
                    const ChainPlanOptions& options) {
  HETESIM_CHECK(!inputs.empty()) << "cannot plan an empty matrix chain";
  const int n = static_cast<int>(inputs.size());
  for (int i = 0; i + 1 < n; ++i) {
    HETESIM_CHECK_EQ(inputs[static_cast<size_t>(i)].cols,
                     inputs[static_cast<size_t>(i) + 1].rows)
        << "chain matrices " << i << " and " << i + 1 << " do not conform";
  }
  std::vector<std::vector<Interval>> best(
      static_cast<size_t>(n), std::vector<Interval>(static_cast<size_t>(n)));
  for (int i = 0; i < n; ++i) {
    Interval& leaf = best[static_cast<size_t>(i)][static_cast<size_t>(i)];
    leaf.estimate = inputs[static_cast<size_t>(i)];
    leaf.dense = false;
  }
  for (int len = 2; len <= n; ++len) {
    for (int i = 0; i + len - 1 < n; ++i) {
      const int j = i + len - 1;
      Interval& cell = best[static_cast<size_t>(i)][static_cast<size_t>(j)];
      cell.total_cost = std::numeric_limits<double>::infinity();
      for (int s = i; s < j; ++s) {
        const Interval& left = best[static_cast<size_t>(i)][static_cast<size_t>(s)];
        const Interval& right =
            best[static_cast<size_t>(s) + 1][static_cast<size_t>(j)];
        const StepCost step = PriceStep(left, right, options);
        const double total = left.total_cost + right.total_cost + step.cost;
        // Strict '<' with ascending s: ties break toward the smallest
        // split, keeping plans deterministic.
        if (total < cell.total_cost) {
          cell.total_cost = total;
          cell.split = s;
          cell.estimate = step.estimate;
          cell.dense = step.dense;
        }
      }
    }
  }
  ChainPlan plan;
  plan.num_inputs = n;
  plan.predicted_cost = best[0][static_cast<size_t>(n) - 1].total_cost;
  EmitSteps(best, 0, n - 1, n, &plan.steps);
  if (MetricsEnabled()) GlobalPlanMetrics().plans.Increment();
  return plan;
}

ChainPlan PlanChain(const std::vector<SparseMatrix>& chain,
                    const ChainPlanOptions& options) {
  std::vector<MatrixEstimate> inputs;
  inputs.reserve(chain.size());
  for (const SparseMatrix& m : chain) inputs.push_back(EstimateOf(m));
  return PlanChain(inputs, options);
}

Result<SparseMatrix> ExecuteChainPlan(const std::vector<SparseMatrix>& chain,
                                      const ChainPlan& plan, int num_threads,
                                      const QueryContext& ctx,
                                      const SpGemmOptions& options) {
  // Plan/chain mismatch and malformed plans are caller errors on a
  // Status-returning path, so they come back as InvalidArgument rather
  // than aborting (callers may hand-build plans).
  if (static_cast<int>(chain.size()) != plan.num_inputs ||
      plan.steps.size() + 1 != chain.size()) {
    return Status::InvalidArgument(
        "chain plan mismatch: " + std::to_string(chain.size()) +
        " matrices vs plan for " + std::to_string(plan.num_inputs) + " with " +
        std::to_string(plan.steps.size()) + " steps");
  }
  if (plan.steps.empty()) return chain[0];
  // Plan validation: O(steps) = chain length, before any compute starts.
  for (size_t t = 0; t < plan.steps.size(); ++t) {  // hetesim-lint: allow(cancel-poll)
    // A step may reference inputs and intermediates of *earlier* steps only.
    const int ready = plan.num_inputs + static_cast<int>(t);
    if (plan.steps[t].left < 0 || plan.steps[t].left >= ready ||
        plan.steps[t].right < 0 || plan.steps[t].right >= ready) {
      return Status::InvalidArgument(
          "chain plan step " + std::to_string(t) + " references slot " +
          std::to_string(plan.steps[t].left) + "*" +
          std::to_string(plan.steps[t].right) + " outside the " +
          std::to_string(ready) + " available");
    }
  }

  std::vector<Intermediate> inter(plan.steps.size());
  auto operand = [&](int slot) -> Operand {
    HETESIM_DCHECK(slot >= 0 &&
                   slot < plan.num_inputs + static_cast<int>(inter.size()));
    if (slot < plan.num_inputs) return {&chain[static_cast<size_t>(slot)], nullptr};
    Intermediate& m = inter[static_cast<size_t>(slot - plan.num_inputs)];
    if (m.is_dense) return {nullptr, &m.dense};
    return {&m.sparse, nullptr};
  };
  auto release = [&](int slot) {
    if (slot >= plan.num_inputs) {
      inter[static_cast<size_t>(slot - plan.num_inputs)] = Intermediate();
    }
  };

  for (size_t t = 0; t < plan.steps.size(); ++t) {
    const ChainPlanStep& step = plan.steps[t];
    HETESIM_RETURN_NOT_OK(ctx.CheckAlive());
    const Operand l = operand(step.left);
    const Operand r = operand(step.right);
    Intermediate& out = inter[t];
    // Hand-built plans may mark a product sparse even though an operand is
    // already dense; the representation follows the operands in that case.
    const bool dense_output =
        step.dense_output || l.dense != nullptr || r.dense != nullptr;
    TraceSpan span(ctx.trace(), "chain.step");
    if (span.active()) {
      span.Annotate("step", std::to_string(t));
      span.Annotate("kernel", dense_output ? "dense" : "spgemm");
      span.Annotate("predicted_nnz",
                    std::to_string(static_cast<int64_t>(step.estimate.nnz)));
    }
    if (!dense_output) {
      HETESIM_ASSIGN_OR_RETURN(
          out.sparse,
          MultiplySparseAdaptive(*l.sparse, *r.sparse, num_threads, ctx, options));
      out.is_dense = false;
    } else {
      out.is_dense = true;
      if (l.sparse != nullptr && r.sparse != nullptr) {
        HETESIM_ASSIGN_OR_RETURN(
            out.dense,
            MultiplySparseSparseDense(*l.sparse, *r.sparse, num_threads, ctx));
      } else if (l.dense != nullptr && r.sparse != nullptr) {
        HETESIM_ASSIGN_OR_RETURN(
            out.dense,
            MultiplyDenseSparseParallel(*l.dense, *r.sparse, num_threads, ctx));
      } else if (l.sparse != nullptr && r.dense != nullptr) {
        HETESIM_ASSIGN_OR_RETURN(
            out.dense,
            MultiplySparseDenseParallel(*l.sparse, *r.dense, num_threads, ctx));
      } else {
        HETESIM_ASSIGN_OR_RETURN(
            out.dense,
            MultiplyDenseDenseParallel(*l.dense, *r.dense, num_threads, ctx));
      }
    }
    if (MetricsEnabled()) {
      PlanMetrics& metrics = GlobalPlanMetrics();
      metrics.steps.Increment();
      metrics.predicted_nnz.Increment(
          static_cast<uint64_t>(std::llround(std::max(step.estimate.nnz, 0.0))));
      if (out.is_dense) {
        metrics.dense_steps.Increment();
        metrics.dense_cells.Increment(
            static_cast<uint64_t>(out.dense.rows()) *
            static_cast<uint64_t>(out.dense.cols()));
      } else {
        metrics.actual_nnz.Increment(
            static_cast<uint64_t>(out.sparse.NumNonZeros()));
      }
    }
    if (span.active()) {
      span.Annotate("actual_nnz",
                    out.is_dense ? "dense"
                                 : std::to_string(out.sparse.NumNonZeros()));
    }
    // Each slot feeds exactly one product; free consumed intermediates so
    // peak memory tracks the live frontier, not the whole plan.
    release(step.left);
    release(step.right);
  }

  Intermediate& root = inter.back();
  if (!root.is_dense) return std::move(root.sparse);
  HETESIM_RETURN_NOT_OK(ctx.CheckAlive());
  return SparseMatrix::FromDense(root.dense, 0.0);
}

}  // namespace hetesim
