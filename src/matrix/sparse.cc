#include "matrix/sparse.h"

#include <algorithm>
#include <cmath>

#include "matrix/ops.h"

namespace hetesim {

SparseMatrix::SparseMatrix(Index rows, Index cols)
    : rows_(rows), cols_(cols), row_ptr_(static_cast<size_t>(rows) + 1, 0) {
  HETESIM_CHECK_GE(rows, 0);
  HETESIM_CHECK_GE(cols, 0);
}

SparseMatrix SparseMatrix::FromTriplets(Index rows, Index cols,
                                        std::vector<Triplet> triplets) {
  SparseMatrix out(rows, cols);
  for (const Triplet& t : triplets) {
    HETESIM_CHECK(t.row >= 0 && t.row < rows && t.col >= 0 && t.col < cols)
        << "triplet (" << t.row << "," << t.col << ") out of bounds for "
        << rows << "x" << cols;
  }
  std::sort(triplets.begin(), triplets.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });
  // Merge duplicates, dropping entries that cancel to exactly zero.
  out.col_idx_.reserve(triplets.size());
  out.values_.reserve(triplets.size());
  size_t i = 0;
  while (i < triplets.size()) {
    const Index row = triplets[i].row;
    const Index col = triplets[i].col;
    double sum = 0.0;
    while (i < triplets.size() && triplets[i].row == row && triplets[i].col == col) {
      sum += triplets[i].value;
      ++i;
    }
    if (sum != 0.0) {
      out.col_idx_.push_back(col);
      out.values_.push_back(sum);
      ++out.row_ptr_[static_cast<size_t>(row) + 1];
    }
  }
  for (size_t r = 0; r < static_cast<size_t>(rows); ++r) {
    out.row_ptr_[r + 1] += out.row_ptr_[r];
  }
  return out;
}

SparseMatrix SparseMatrix::FromCsr(Index rows, Index cols,
                                   std::vector<Index> row_ptr,
                                   std::vector<Index> col_idx,
                                   std::vector<double> values) {
  SparseMatrix out(rows, cols);
  HETESIM_CHECK_EQ(row_ptr.size(), static_cast<size_t>(rows) + 1);
  HETESIM_CHECK_EQ(col_idx.size(), values.size());
  HETESIM_CHECK_EQ(static_cast<size_t>(row_ptr.back()), col_idx.size());
  HETESIM_CHECK_EQ(row_ptr.front(), 0);
  for (size_t r = 0; r < static_cast<size_t>(rows); ++r) {
    HETESIM_CHECK_LE(row_ptr[r], row_ptr[r + 1]);
  }
#ifndef NDEBUG
  // Per-entry validation is an extra O(nnz) pass over output arrays the
  // SpGEMM kernels already emit sorted, and it is measurable on products
  // whose cost is emission-dominated — so it runs in debug builds only.
  for (size_t r = 0; r < static_cast<size_t>(rows); ++r) {
    for (Index k = row_ptr[r]; k < row_ptr[r + 1]; ++k) {
      const Index c = col_idx[static_cast<size_t>(k)];
      HETESIM_CHECK(c >= 0 && c < cols)
          << "CSR column " << c << " out of bounds for width " << cols;
      HETESIM_CHECK(k == row_ptr[r] || col_idx[static_cast<size_t>(k) - 1] < c)
          << "CSR columns must be strictly ascending within a row";
    }
  }
#endif
  out.row_ptr_ = std::move(row_ptr);
  out.col_idx_ = std::move(col_idx);
  out.values_ = std::move(values);
  return out;
}

SparseMatrix SparseMatrix::FromDense(const DenseMatrix& dense, double threshold) {
  // A dense scan already visits cells in CSR order, so build the arrays
  // directly instead of routing millions of cells through a triplet sort.
  std::vector<Index> row_ptr(static_cast<size_t>(dense.rows()) + 1, 0);
  std::vector<Index> col_idx;
  std::vector<double> values;
  for (Index i = 0; i < dense.rows(); ++i) {
    for (Index j = 0; j < dense.cols(); ++j) {
      const double v = dense(i, j);
      if (std::abs(v) > threshold) {
        col_idx.push_back(j);
        values.push_back(v);
      }
    }
    row_ptr[static_cast<size_t>(i) + 1] = static_cast<Index>(col_idx.size());
  }
  return FromCsr(dense.rows(), dense.cols(), std::move(row_ptr),
                 std::move(col_idx), std::move(values));
}

SparseMatrix SparseMatrix::Identity(Index n) {
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<size_t>(n));
  for (Index i = 0; i < n; ++i) triplets.push_back({i, i, 1.0});
  return FromTriplets(n, n, std::move(triplets));
}

double SparseMatrix::At(Index r, Index c) const {
  HETESIM_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
  auto indices = RowIndices(r);
  auto it = std::lower_bound(indices.begin(), indices.end(), c);
  if (it == indices.end() || *it != c) return 0.0;
  return values_[static_cast<size_t>(row_ptr_[static_cast<size_t>(r)] +
                                     (it - indices.begin()))];
}

std::span<const Index> SparseMatrix::RowIndices(Index r) const {
  HETESIM_DCHECK(r >= 0 && r < rows_);
  const size_t begin = static_cast<size_t>(row_ptr_[static_cast<size_t>(r)]);
  const size_t end = static_cast<size_t>(row_ptr_[static_cast<size_t>(r) + 1]);
  return {col_idx_.data() + begin, end - begin};
}

std::span<const double> SparseMatrix::RowValues(Index r) const {
  HETESIM_DCHECK(r >= 0 && r < rows_);
  const size_t begin = static_cast<size_t>(row_ptr_[static_cast<size_t>(r)]);
  const size_t end = static_cast<size_t>(row_ptr_[static_cast<size_t>(r) + 1]);
  return {values_.data() + begin, end - begin};
}

double SparseMatrix::RowSum(Index r) const {
  double acc = 0.0;
  for (double v : RowValues(r)) acc += v;
  return acc;
}

SparseMatrix SparseMatrix::Transpose() const {
  SparseMatrix out(cols_, rows_);
  out.col_idx_.resize(values_.size());
  out.values_.resize(values_.size());
  // Count entries per output row (input column).
  for (Index c : col_idx_) ++out.row_ptr_[static_cast<size_t>(c) + 1];
  for (size_t r = 0; r < static_cast<size_t>(cols_); ++r) {
    out.row_ptr_[r + 1] += out.row_ptr_[r];
  }
  std::vector<Index> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (Index r = 0; r < rows_; ++r) {
    auto indices = RowIndices(r);
    auto values = RowValues(r);
    for (size_t k = 0; k < indices.size(); ++k) {
      const size_t pos = static_cast<size_t>(cursor[static_cast<size_t>(indices[k])]++);
      out.col_idx_[pos] = r;
      out.values_[pos] = values[k];
    }
  }
  // Column indices within each output row are ascending because the source
  // rows were visited in ascending order.
  return out;
}

SparseMatrix SparseMatrix::Multiply(const SparseMatrix& other) const {
  HETESIM_CHECK_EQ(cols_, other.rows_);
  SparseMatrix out(rows_, other.cols_);
  std::vector<double> accumulator(static_cast<size_t>(other.cols_), 0.0);
  std::vector<Index> touched;
  for (Index i = 0; i < rows_; ++i) {
    touched.clear();
    auto a_indices = RowIndices(i);
    auto a_values = RowValues(i);
    for (size_t ka = 0; ka < a_indices.size(); ++ka) {
      const Index k = a_indices[ka];
      const double a_ik = a_values[ka];
      auto b_indices = other.RowIndices(k);
      auto b_values = other.RowValues(k);
      for (size_t kb = 0; kb < b_indices.size(); ++kb) {
        const Index j = b_indices[kb];
        if (accumulator[static_cast<size_t>(j)] == 0.0) touched.push_back(j);
        accumulator[static_cast<size_t>(j)] += a_ik * b_values[kb];
      }
    }
    std::sort(touched.begin(), touched.end());
    Index row_nnz = 0;
    for (Index j : touched) {
      const double v = accumulator[static_cast<size_t>(j)];
      accumulator[static_cast<size_t>(j)] = 0.0;
      if (v != 0.0) {
        out.col_idx_.push_back(j);
        out.values_.push_back(v);
        ++row_nnz;
      }
    }
    out.row_ptr_[static_cast<size_t>(i) + 1] =
        out.row_ptr_[static_cast<size_t>(i)] + row_nnz;
  }
  return out;
}

std::vector<double> SparseMatrix::MultiplyVector(const std::vector<double>& x) const {
  HETESIM_CHECK_EQ(static_cast<size_t>(cols_), x.size());
  std::vector<double> out(static_cast<size_t>(rows_), 0.0);
  for (Index i = 0; i < rows_; ++i) {
    auto indices = RowIndices(i);
    auto values = RowValues(i);
    double acc = 0.0;
    for (size_t k = 0; k < indices.size(); ++k) {
      acc += values[k] * x[static_cast<size_t>(indices[k])];
    }
    out[static_cast<size_t>(i)] = acc;
  }
  return out;
}

std::vector<double> SparseMatrix::LeftMultiplyVector(const std::vector<double>& x) const {
  HETESIM_CHECK_EQ(static_cast<size_t>(rows_), x.size());
  std::vector<double> out(static_cast<size_t>(cols_), 0.0);
  for (Index i = 0; i < rows_; ++i) {
    const double xi = x[static_cast<size_t>(i)];
    if (xi == 0.0) continue;
    auto indices = RowIndices(i);
    auto values = RowValues(i);
    for (size_t k = 0; k < indices.size(); ++k) {
      out[static_cast<size_t>(indices[k])] += xi * values[k];
    }
  }
  return out;
}

SparseMatrix SparseMatrix::RowNormalized() const {
  SparseMatrix out = *this;
  for (Index r = 0; r < rows_; ++r) {
    const double sum = RowSum(r);
    if (sum == 0.0) continue;
    const size_t begin = static_cast<size_t>(row_ptr_[static_cast<size_t>(r)]);
    const size_t end = static_cast<size_t>(row_ptr_[static_cast<size_t>(r) + 1]);
    for (size_t k = begin; k < end; ++k) out.values_[k] /= sum;
  }
  return out;
}

SparseMatrix SparseMatrix::ColNormalized() const {
  std::vector<double> col_sums(static_cast<size_t>(cols_), 0.0);
  for (size_t k = 0; k < values_.size(); ++k) {
    col_sums[static_cast<size_t>(col_idx_[k])] += values_[k];
  }
  SparseMatrix out = *this;
  for (size_t k = 0; k < values_.size(); ++k) {
    const double sum = col_sums[static_cast<size_t>(col_idx_[k])];
    if (sum != 0.0) out.values_[k] /= sum;
  }
  return out;
}

SparseMatrix SparseMatrix::Add(const SparseMatrix& other) const {
  HETESIM_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  std::vector<Triplet> triplets;
  triplets.reserve(values_.size() + other.values_.size());
  for (Index r = 0; r < rows_; ++r) {
    auto ai = RowIndices(r);
    auto av = RowValues(r);
    for (size_t k = 0; k < ai.size(); ++k) triplets.push_back({r, ai[k], av[k]});
    auto bi = other.RowIndices(r);
    auto bv = other.RowValues(r);
    for (size_t k = 0; k < bi.size(); ++k) triplets.push_back({r, bi[k], bv[k]});
  }
  return FromTriplets(rows_, cols_, std::move(triplets));
}

double SparseMatrix::RowNorm(Index r) const { return Norm2(RowValues(r)); }

std::vector<double> SparseMatrix::RowDense(Index r) const {
  std::vector<double> out(static_cast<size_t>(cols_), 0.0);
  auto indices = RowIndices(r);
  auto values = RowValues(r);
  for (size_t k = 0; k < indices.size(); ++k) {
    out[static_cast<size_t>(indices[k])] = values[k];
  }
  return out;
}

DenseMatrix SparseMatrix::ToDense() const {
  DenseMatrix out(rows_, cols_);
  for (Index r = 0; r < rows_; ++r) {
    auto indices = RowIndices(r);
    auto values = RowValues(r);
    for (size_t k = 0; k < indices.size(); ++k) out(r, indices[k]) = values[k];
  }
  return out;
}

double SparseMatrix::Density() const {
  if (rows_ == 0 || cols_ == 0) return 0.0;
  return static_cast<double>(NumNonZeros()) /
         (static_cast<double>(rows_) * static_cast<double>(cols_));
}

bool SparseMatrix::ApproxEquals(const SparseMatrix& other, double tolerance) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  // Compare by merging both rows; structure may differ even if values agree.
  for (Index r = 0; r < rows_; ++r) {
    auto ai = RowIndices(r);
    auto av = RowValues(r);
    auto bi = other.RowIndices(r);
    auto bv = other.RowValues(r);
    size_t p = 0;
    size_t q = 0;
    while (p < ai.size() || q < bi.size()) {
      if (q == bi.size() || (p < ai.size() && ai[p] < bi[q])) {
        if (std::abs(av[p]) > tolerance) return false;
        ++p;
      } else if (p == ai.size() || bi[q] < ai[p]) {
        if (std::abs(bv[q]) > tolerance) return false;
        ++q;
      } else {
        if (std::abs(av[p] - bv[q]) > tolerance) return false;
        ++p;
        ++q;
      }
    }
  }
  return true;
}

}  // namespace hetesim
