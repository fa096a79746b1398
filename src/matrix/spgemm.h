#ifndef HETESIM_MATRIX_SPGEMM_H_
#define HETESIM_MATRIX_SPGEMM_H_

#include <optional>

#include "common/context.h"
#include "common/result.h"
#include "matrix/dense.h"
#include "matrix/sparse.h"

namespace hetesim {

/// \brief Adaptive SpGEMM kernels for path-matrix products.
///
/// The seed Gustavson kernel (`SparseMatrix::Multiply`) uses one dense
/// scratch accumulator per row regardless of how much of the output row it
/// actually fills, paying O(cols) of zeroing/allocation and a sort of the
/// touched list even for rows that produce two entries. These kernels pick
/// a row accumulator from the row's *predicted fill* (the Gustavson upper
/// bound: the sum of `b`-row sizes over the `a`-row's entries) and add
/// dense-output paths for products that densify — the representation
/// switch the chain planner (`matrix/chain_plan.h`) exploits.
///
/// Every kernel accumulates each output column in the same visit order as
/// the seed kernel (ascending `a`-row position, then ascending `b`-row
/// position), so all accumulators — and the seed kernel — agree *bitwise*,
/// not just to rounding. Parallel runs chunk output rows and stitch by row
/// id, so results are bitwise identical at any thread count. Every kernel
/// takes a `QueryContext` (default `QueryContext::Background()`): it polls
/// `ctx` per chunk, charges chunk outputs against the memory budget and
/// honors the `spgemm.alloc` fault point.

/// Per-row accumulator strategies.
enum class RowKernel {
  /// Keep the row sorted and merge each scaled `b` row in: no O(cols)
  /// scratch, no final sort. Right for rows with tiny predicted fill.
  kSortedMerge,
  /// Open-addressing hash accumulator sized to the predicted fill; entries
  /// are sorted once at emit. Right for medium fill over wide outputs,
  /// where a dense scratch would mostly touch zeros.
  kHash,
  /// The seed strategy: dense scratch + touched list + sort. Right once
  /// the row fills a sizable fraction of the output width.
  kDenseScratch,
};

/// Picks the accumulator for one output row. `fill_upper_bound` is the
/// Gustavson bound on the row's stored entries (duplicate columns counted
/// once per contribution); `out_cols` is the output width. Thresholds are
/// documented in DESIGN.md §10.
RowKernel ChooseRowKernel(Index fill_upper_bound, Index out_cols);

/// Kernel-selection overrides, used by the equivalence tests to pin every
/// row to one accumulator. Defaults adapt per row.
struct SpGemmOptions {
  std::optional<RowKernel> forced_kernel;
};

/// Adaptive sparse-sparse product `a * b`, bitwise identical to
/// `a.Multiply(b)` at any thread count (1 sequential, 0 = all hardware
/// threads). `ctx` is polled once per chunk (per 64-row stripe when
/// sequential), every chunk's output is charged against its memory budget,
/// and the `spgemm.alloc` fault point is honored. Fails with
/// `InvalidArgument` on an inner-dimension mismatch, or `Cancelled`,
/// `DeadlineExceeded` or `ResourceExhausted`.
[[nodiscard]] Result<SparseMatrix> MultiplySparseAdaptive(
    const SparseMatrix& a, const SparseMatrix& b, int num_threads = 1,
    const QueryContext& ctx = QueryContext::Background(),
    const SpGemmOptions& options = {});

/// Gustavson product `a * b` accumulated directly into a dense matrix —
/// the representation switch for products predicted (or known) to densify:
/// no touched lists, no per-row sorts, no CSR materialization. The dense
/// output (rows*cols doubles) is reserved against the budget up front.
[[nodiscard]] Result<DenseMatrix> MultiplySparseSparseDense(
    const SparseMatrix& a, const SparseMatrix& b, int num_threads = 1,
    const QueryContext& ctx = QueryContext::Background());

/// Dense-representation continuation kernels for the rest of a chain once
/// an intermediate has switched: `dense * sparse` streams the sparse rows
/// of `b`, `sparse * dense` streams the dense rows of `b`, and
/// `dense * dense` is the classic i-k-j product. All are row-parallel with
/// the same chunk-granular context polling, budget charge and fault point
/// as `MultiplySparseSparseDense`.
[[nodiscard]] Result<DenseMatrix> MultiplyDenseSparseParallel(
    const DenseMatrix& a, const SparseMatrix& b, int num_threads = 1,
    const QueryContext& ctx = QueryContext::Background());
[[nodiscard]] Result<DenseMatrix> MultiplySparseDenseParallel(
    const SparseMatrix& a, const DenseMatrix& b, int num_threads = 1,
    const QueryContext& ctx = QueryContext::Background());
[[nodiscard]] Result<DenseMatrix> MultiplyDenseDenseParallel(
    const DenseMatrix& a, const DenseMatrix& b, int num_threads = 1,
    const QueryContext& ctx = QueryContext::Background());

}  // namespace hetesim

#endif  // HETESIM_MATRIX_SPGEMM_H_
