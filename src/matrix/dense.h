#ifndef HETESIM_MATRIX_DENSE_H_
#define HETESIM_MATRIX_DENSE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/check.h"

namespace hetesim {

/// Signed index type used across the linear-algebra substrate (Google style
/// prefers signed arithmetic; sizes here are far below 2^63).
using Index = int64_t;

/// \brief Row-major dense matrix of doubles.
///
/// Used for relevance matrices (|A| x |B| similarity tables), spectral
/// embeddings and the Jacobi eigensolver. Sparse structure lives in
/// `SparseMatrix`; chains of transition-matrix products typically start
/// sparse and densify, so both representations interconvert cheaply.
class DenseMatrix {
 public:
  /// Empty 0x0 matrix.
  DenseMatrix() : rows_(0), cols_(0) {}
  /// `rows` x `cols` matrix, zero-initialized.
  DenseMatrix(Index rows, Index cols)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows * cols), 0.0) {
    HETESIM_CHECK_GE(rows, 0);
    HETESIM_CHECK_GE(cols, 0);
  }
  /// `rows` x `cols` matrix from row-major `data` (size must match).
  DenseMatrix(Index rows, Index cols, std::vector<double> data);

  DenseMatrix(const DenseMatrix&) = default;
  DenseMatrix& operator=(const DenseMatrix&) = default;
  DenseMatrix(DenseMatrix&&) noexcept = default;
  DenseMatrix& operator=(DenseMatrix&&) noexcept = default;

  /// The `n` x `n` identity.
  static DenseMatrix Identity(Index n);

  Index rows() const { return rows_; }
  Index cols() const { return cols_; }
  /// Total number of entries.
  Index size() const { return rows_ * cols_; }

  double operator()(Index r, Index c) const {
    HETESIM_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }
  double& operator()(Index r, Index c) {
    HETESIM_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[static_cast<size_t>(r * cols_ + c)];
  }

  /// Pointer to the start of row `r` (contiguous, `cols()` entries).
  const double* RowData(Index r) const {
    HETESIM_DCHECK(r >= 0 && r < rows_);
    return data_.data() + r * cols_;
  }
  double* RowData(Index r) {
    HETESIM_DCHECK(r >= 0 && r < rows_);
    return data_.data() + r * cols_;
  }

  /// Copy of row `r` as a vector.
  std::vector<double> Row(Index r) const;

  /// Sets every entry to `value`.
  void Fill(double value);

  /// Matrix product `this * other`; dimensions must agree.
  DenseMatrix Multiply(const DenseMatrix& other) const;
  /// Matrix-vector product `this * x`; `x.size() == cols()`.
  std::vector<double> MultiplyVector(const std::vector<double>& x) const;
  /// Transposed copy.
  DenseMatrix Transpose() const;

  /// Copy restricted to the given rows and columns, in the given order
  /// (indices may repeat). Used e.g. to carve the labeled sample out of a
  /// full similarity matrix before clustering.
  DenseMatrix Submatrix(const std::vector<Index>& row_ids,
                        const std::vector<Index>& col_ids) const;

  /// Element-wise sum / scale.
  DenseMatrix Add(const DenseMatrix& other) const;
  DenseMatrix Scale(double factor) const;

  /// max_ij |a_ij - b_ij|; matrices must have identical shapes.
  double MaxAbsDiff(const DenseMatrix& other) const;
  /// Frobenius norm.
  double FrobeniusNorm() const;
  /// True iff every entry differs from `other` by at most `tolerance`.
  bool ApproxEquals(const DenseMatrix& other, double tolerance = 1e-9) const;

  /// Raw row-major storage (for tests and serialization).
  const std::vector<double>& data() const { return data_; }

  /// Human-readable rendering with fixed precision, for debugging.
  std::string ToString(int precision = 4) const;

 private:
  Index rows_;
  Index cols_;
  std::vector<double> data_;
};

}  // namespace hetesim

#endif  // HETESIM_MATRIX_DENSE_H_
