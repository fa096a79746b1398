#ifndef HETESIM_MATRIX_SPARSE_H_
#define HETESIM_MATRIX_SPARSE_H_

#include <span>
#include <vector>

#include "matrix/dense.h"

namespace hetesim {

/// One entry of a coordinate-format (COO) triplet list.
struct Triplet {
  Index row = 0;
  Index col = 0;
  double value = 0.0;
};

/// \brief Compressed-sparse-row (CSR) matrix of doubles.
///
/// This is the workhorse of the library: every typed adjacency matrix
/// `W_AB`, transition matrix `U_AB` / `V_AB` (Definition 8) and reachable
/// probability matrix `PM_P` (Definition 9) is a `SparseMatrix`. Rows are
/// stored contiguously with column indices sorted ascending within each row;
/// explicit zeros are dropped at construction, duplicates are summed.
class SparseMatrix {
 public:
  /// Empty 0x0 matrix.
  SparseMatrix() : rows_(0), cols_(0), row_ptr_(1, 0) {}
  /// `rows` x `cols` matrix with no non-zeros.
  SparseMatrix(Index rows, Index cols);

  SparseMatrix(const SparseMatrix&) = default;
  SparseMatrix& operator=(const SparseMatrix&) = default;
  SparseMatrix(SparseMatrix&&) noexcept = default;
  SparseMatrix& operator=(SparseMatrix&&) noexcept = default;

  /// Builds from a COO triplet list; duplicate coordinates are summed and
  /// entries that sum to exactly zero are dropped.
  static SparseMatrix FromTriplets(Index rows, Index cols,
                                   std::vector<Triplet> triplets);
  /// Adopts ready-made CSR arrays: `row_ptr` has `rows + 1` monotonically
  /// non-decreasing offsets, column indices are in range and sorted
  /// ascending within each row, no duplicates. The offset invariants are
  /// always checked; per-entry column order/range is verified in debug
  /// builds only — callers must hand in well-formed arrays. The fast path
  /// for kernels that already produce CSR order (adaptive SpGEMM chunk
  /// stitching, dense->sparse conversion).
  static SparseMatrix FromCsr(Index rows, Index cols, std::vector<Index> row_ptr,
                              std::vector<Index> col_idx,
                              std::vector<double> values);
  /// Builds from a dense matrix, dropping entries with |v| <= `threshold`.
  static SparseMatrix FromDense(const DenseMatrix& dense, double threshold = 0.0);
  /// The `n` x `n` identity.
  static SparseMatrix Identity(Index n);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  /// Number of stored entries.
  Index NumNonZeros() const { return static_cast<Index>(values_.size()); }

  /// Value at (r, c); O(log nnz(row)) via binary search, 0.0 if absent.
  double At(Index r, Index c) const;

  /// Column indices of row `r`, sorted ascending.
  std::span<const Index> RowIndices(Index r) const;
  /// Values of row `r`, aligned with `RowIndices(r)`.
  std::span<const double> RowValues(Index r) const;
  /// Number of stored entries in row `r`.
  Index RowNnz(Index r) const { return row_ptr_[static_cast<size_t>(r) + 1] - row_ptr_[static_cast<size_t>(r)]; }
  /// Sum of the values in row `r`.
  double RowSum(Index r) const;

  /// Transposed copy (CSR of the transpose, i.e. CSC view materialized).
  SparseMatrix Transpose() const;

  /// Sparse-sparse product `this * other` (classic Gustavson SpGEMM):
  /// the seed kernel, kept sequential and context-free as the correctness
  /// oracle every production product in `matrix/spgemm.h` matches bitwise.
  SparseMatrix Multiply(const SparseMatrix& other) const;
  /// Matrix-vector product `this * x`.
  std::vector<double> MultiplyVector(const std::vector<double>& x) const;
  /// Vector-matrix product `x^T * this`, returned as a vector of size cols().
  std::vector<double> LeftMultiplyVector(const std::vector<double>& x) const;

  /// Returns a copy with each row scaled to sum 1 (L1); zero rows unchanged.
  /// This is exactly the transition matrix `U` of Definition 8 when applied
  /// to an adjacency matrix.
  SparseMatrix RowNormalized() const;
  /// Returns a copy with each column scaled to sum 1; zero columns
  /// unchanged. `W.ColNormalized()` is `V` of Definition 8; note
  /// Property 2: `U_AB = V_BA'` and `V_AB = U_BA'`.
  SparseMatrix ColNormalized() const;
  /// Element-wise sum; shapes must match.
  SparseMatrix Add(const SparseMatrix& other) const;

  /// L2 norm of row `r`.
  double RowNorm(Index r) const;

  /// Row `r` expanded to a dense vector of size cols().
  std::vector<double> RowDense(Index r) const;

  /// Densified copy.
  DenseMatrix ToDense() const;

  /// Fraction of entries stored: nnz / (rows*cols); 0 for empty shapes.
  double Density() const;

  /// Approximate heap footprint in bytes (CSR arrays + object header) —
  /// the quantity `PathMatrixCache` charges against its memory budget.
  size_t ApproxBytes() const {
    return sizeof(SparseMatrix) + row_ptr_.capacity() * sizeof(Index) +
           col_idx_.capacity() * sizeof(Index) + values_.capacity() * sizeof(double);
  }

  /// True iff shapes match and all entries differ by at most `tolerance`.
  bool ApproxEquals(const SparseMatrix& other, double tolerance = 1e-9) const;

  /// CSR internals, exposed read-only for tests and serialization.
  const std::vector<Index>& row_ptr() const { return row_ptr_; }
  const std::vector<Index>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

 private:
  Index rows_;
  Index cols_;
  std::vector<Index> row_ptr_;   // size rows_+1
  std::vector<Index> col_idx_;   // size nnz, sorted within each row
  std::vector<double> values_;   // size nnz
};

}  // namespace hetesim

#endif  // HETESIM_MATRIX_SPARSE_H_
