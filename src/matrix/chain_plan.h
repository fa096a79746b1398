#ifndef HETESIM_MATRIX_CHAIN_PLAN_H_
#define HETESIM_MATRIX_CHAIN_PLAN_H_

#include <vector>

#include "common/context.h"
#include "common/result.h"
#include "matrix/cost_model.h"
#include "matrix/sparse.h"
#include "matrix/spgemm.h"

namespace hetesim {

/// \brief Dynamic-programming association planner for path-matrix chains.
///
/// `MultiplyChain` used to evaluate strictly left-to-right with one fixed
/// CSR kernel. For meta-path products that is doubly wrong: association
/// order changes the total multiply-add count by orders of magnitude (the
/// classic matrix-chain problem), and long transition-chain products
/// densify to the point where CSR row assembly is pure overhead. The
/// planner runs the O(l^3) matrix-chain DP over a deterministic cost model
/// (`matrix/cost_model.h`) — exact nnz for the materialized inputs,
/// density propagation for unmaterialized intermediates — and records, per
/// product, whether the intermediate should switch to a dense
/// representation. Execution then dispatches each step to the matching
/// adaptive kernel (`matrix/spgemm.h`).
///
/// Plans are pure functions of the input shapes/nnz and the options, so
/// the same chain always yields the same plan, and a fixed plan executes
/// bitwise-identically at any thread count. See DESIGN.md §10.

/// Cost-model knobs. The defaults are calibrated for the CSR/dense kernels
/// in this repo (see DESIGN.md §10); tests pin them explicitly where the
/// choice matters.
struct ChainPlanOptions {
  /// An intermediate whose predicted density reaches this threshold is
  /// produced directly as a dense matrix (and stays dense downstream).
  double dense_switch_density = 0.25;
  /// Cost of one Gustavson multiply-add into a sparse accumulator,
  /// relative to a dense fused multiply-add (hashing / merging / touched
  /// list bookkeeping).
  double sparse_flop_cost = 4.0;
  /// Cost of materializing one stored CSR entry (sort + stitch + copy).
  double sparse_entry_cost = 2.0;
  /// Cost of one dense multiply-add (the unit of the model).
  double dense_flop_cost = 1.0;
  /// Cost per output cell of allocating/zeroing a dense intermediate.
  double dense_cell_cost = 0.125;
};

/// One planned product. Slots `0..num_inputs-1` are the chain inputs;
/// slot `num_inputs + t` is the result of step `t`. Every slot is consumed
/// by exactly one later step (the last step produces the final result).
struct ChainPlanStep {
  int left = 0;
  int right = 0;
  /// True if this product is produced (and kept) as a dense matrix —
  /// either because an operand is already dense or because its predicted
  /// density crosses `dense_switch_density`.
  bool dense_output = false;
  /// The planner's predicted shape/fill for this product.
  MatrixEstimate estimate;
};

/// A full association plan for one chain.
struct ChainPlan {
  int num_inputs = 0;
  /// Products in execution order; `steps.size() == num_inputs - 1`.
  std::vector<ChainPlanStep> steps;
  /// Total model cost of the plan, in dense-flop units.
  double predicted_cost = 0.0;
};

/// Plans the cheapest association for inputs with the given shapes/fills.
/// The chain must be non-empty and conformable (checked). Deterministic:
/// ties between splits break toward the smallest split index.
ChainPlan PlanChain(const std::vector<MatrixEstimate>& inputs,
                    const ChainPlanOptions& options = {});

/// Convenience overload: plans from the materialized matrices' exact
/// shapes and nnz.
ChainPlan PlanChain(const std::vector<SparseMatrix>& chain,
                    const ChainPlanOptions& options = {});

/// Executes `plan` over `chain`, dispatching each step to the adaptive
/// sparse kernel or the dense-representation kernels per `dense_output`,
/// and converting a dense final product back to CSR (exact zeros dropped,
/// as in every CSR product). Bitwise deterministic for a fixed plan at any
/// `num_threads` (1 = sequential, 0 = all hardware threads). The context
/// is checked between steps and polled per chunk inside every kernel,
/// chunk outputs and dense intermediates are charged against its memory
/// budget, and the `spgemm.alloc` fault point is honored. Fails with
/// `InvalidArgument` for a plan that does not fit the chain, or
/// `Cancelled`, `DeadlineExceeded` or `ResourceExhausted`.
[[nodiscard]] Result<SparseMatrix> ExecuteChainPlan(
    const std::vector<SparseMatrix>& chain, const ChainPlan& plan,
    int num_threads = 1, const QueryContext& ctx = QueryContext::Background(),
    const SpGemmOptions& options = {});

}  // namespace hetesim

#endif  // HETESIM_MATRIX_CHAIN_PLAN_H_
