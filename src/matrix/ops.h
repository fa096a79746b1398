#ifndef HETESIM_MATRIX_OPS_H_
#define HETESIM_MATRIX_OPS_H_

#include <span>
#include <vector>

#include "common/context.h"
#include "common/result.h"
#include "matrix/sparse.h"

namespace hetesim {

/// Dot product of two equal-length vectors.
double Dot(const std::vector<double>& a, const std::vector<double>& b);

/// Euclidean (L2) norm, its squares summed in order.
double Norm2(std::span<const double> a);

/// Scales `a` in place to unit L2 norm; no-op for an all-zero vector.
void NormalizeL2(std::vector<double>& a);

/// Multiplies a chain of sparse matrices:
/// `chain[0] * chain[1] * ... * chain.back()`. Adjacent dimensions must
/// agree; an empty chain is `InvalidArgument`. The association order and
/// per-product representation (CSR vs dense) are chosen by the cost-model
/// planner (`matrix/chain_plan.h`) and run through `ExecuteChainPlan`
/// under `ctx`, so a long relevance-path product can be abandoned
/// mid-plan. The plan is a pure function of the chain's shapes and fills,
/// so repeated calls on the same chain are bitwise reproducible at any
/// `num_threads` (1 sequential, 0 = all hardware threads). Association
/// order changes floating-point rounding, so results agree with the
/// left-to-right product to ~1e-12, not bitwise — use
/// `MultiplyChainLeftToRight` where the seed order itself is wanted.
[[nodiscard]] Result<SparseMatrix> MultiplyChain(
    const std::vector<SparseMatrix>& chain, int num_threads = 1,
    const QueryContext& ctx = QueryContext::Background());

/// The seed evaluation order: strictly left-to-right, sequential, with the
/// seed Gustavson kernel (`SparseMatrix::Multiply`). Kept only as the
/// planner's correctness oracle and the benchmark baseline; aborts on an
/// empty chain.
SparseMatrix MultiplyChainLeftToRight(const std::vector<SparseMatrix>& chain);

/// Row vector times a chain of sparse matrices:
/// `x^T * chain[0] * ... * chain.back()`: the dense single-source
/// reachable-probability computation, O(sum of nnz + dimensions) instead of
/// a full matrix product. Queries propagate the same values sparsely with
/// `PropagateFrontier` (core/frontier.h); this dense form is their oracle.
std::vector<double> VectorThroughChain(std::vector<double> x,
                                       const std::vector<SparseMatrix>& chain);

}  // namespace hetesim

#endif  // HETESIM_MATRIX_OPS_H_
