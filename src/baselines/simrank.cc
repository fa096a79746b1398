#include "baselines/simrank.h"

#include "common/check.h"
#include "matrix/spgemm.h"

namespace hetesim {

namespace {

/// One SimRank fixed-point sweep in matrix form: S <- C * Q' S Q with the
/// diagonal pinned to 1, where Q is the column-normalized adjacency
/// (Q(i, a) = 1/|I(a)| for each in-neighbor i of a).
DenseMatrix SimRankIterate(const SparseMatrix& q, const SparseMatrix& q_transpose,
                           const DenseMatrix& s, double decay) {
  const DenseMatrix q_transpose_s = MultiplySparseDenseParallel(q_transpose, s).value();
  DenseMatrix next = MultiplyDenseSparseParallel(q_transpose_s, q).value();
  for (Index i = 0; i < next.rows(); ++i) {
    for (Index j = 0; j < next.cols(); ++j) next(i, j) *= decay;
    next(i, i) = 1.0;
  }
  return next;
}

DenseMatrix SimRankFixedPoint(const SparseMatrix& adjacency,
                              const SimRankOptions& options) {
  HETESIM_CHECK_EQ(adjacency.rows(), adjacency.cols());
  const SparseMatrix q = adjacency.ColNormalized();
  const SparseMatrix q_transpose = q.Transpose();
  DenseMatrix s = DenseMatrix::Identity(adjacency.rows());
  for (int iteration = 0; iteration < options.max_iterations; ++iteration) {
    DenseMatrix next = SimRankIterate(q, q_transpose, s, options.decay);
    const double delta = next.MaxAbsDiff(s);
    s = std::move(next);
    if (delta <= options.tolerance) break;
  }
  return s;
}

}  // namespace

DenseMatrix SimRankHeterogeneous(const HomogeneousView& view,
                                 const SimRankOptions& options) {
  return SimRankFixedPoint(view.adjacency, options);
}

DenseMatrix BipartiteSimRankSeries(const SparseMatrix& w, int depth, bool a_side) {
  HETESIM_CHECK_GE(depth, 1);
  const SparseMatrix u_ab = w.RowNormalized();
  const SparseMatrix u_ba = w.Transpose().RowNormalized();
  // M_k = product of the first k alternating transitions; term_k = M_k M_k'.
  SparseMatrix m = a_side ? u_ab : u_ba;
  const Index n = m.rows();
  DenseMatrix total(n, n);
  for (int k = 1; k <= depth; ++k) {
    total = total.Add(m.Multiply(m.Transpose()).ToDense());
    if (k == depth) break;
    // Extend the walk by one step; the next factor alternates sides.
    const bool next_is_ab = (a_side && k % 2 == 0) || (!a_side && k % 2 == 1);
    m = m.Multiply(next_is_ab ? u_ab : u_ba);
  }
  return total;
}

}  // namespace hetesim
