#include "matrix/dense.h"

#include <cmath>
#include <sstream>

#include "common/string_util.h"

namespace hetesim {

DenseMatrix::DenseMatrix(Index rows, Index cols, std::vector<double> data)
    : rows_(rows), cols_(cols), data_(std::move(data)) {
  HETESIM_CHECK_EQ(static_cast<size_t>(rows * cols), data_.size());
}

DenseMatrix DenseMatrix::Identity(Index n) {
  DenseMatrix m(n, n);
  for (Index i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

std::vector<double> DenseMatrix::Row(Index r) const {
  return std::vector<double>(RowData(r), RowData(r) + cols_);
}

void DenseMatrix::Fill(double value) {
  for (double& v : data_) v = value;
}

DenseMatrix DenseMatrix::Multiply(const DenseMatrix& other) const {
  HETESIM_CHECK_EQ(cols_, other.rows_);
  DenseMatrix out(rows_, other.cols_);
  // i-k-j loop order keeps the inner loop streaming over contiguous rows.
  for (Index i = 0; i < rows_; ++i) {
    const double* a_row = RowData(i);
    double* out_row = out.RowData(i);
    for (Index k = 0; k < cols_; ++k) {
      const double a_ik = a_row[k];
      if (a_ik == 0.0) continue;
      const double* b_row = other.RowData(k);
      for (Index j = 0; j < other.cols_; ++j) {
        out_row[j] += a_ik * b_row[j];
      }
    }
  }
  return out;
}

std::vector<double> DenseMatrix::MultiplyVector(const std::vector<double>& x) const {
  HETESIM_CHECK_EQ(static_cast<size_t>(cols_), x.size());
  std::vector<double> out(static_cast<size_t>(rows_), 0.0);
  for (Index i = 0; i < rows_; ++i) {
    const double* row = RowData(i);
    double acc = 0.0;
    for (Index j = 0; j < cols_; ++j) acc += row[j] * x[static_cast<size_t>(j)];
    out[static_cast<size_t>(i)] = acc;
  }
  return out;
}

DenseMatrix DenseMatrix::Transpose() const {
  DenseMatrix out(cols_, rows_);
  for (Index i = 0; i < rows_; ++i) {
    for (Index j = 0; j < cols_; ++j) out(j, i) = (*this)(i, j);
  }
  return out;
}

DenseMatrix DenseMatrix::Submatrix(const std::vector<Index>& row_ids,
                                   const std::vector<Index>& col_ids) const {
  DenseMatrix out(static_cast<Index>(row_ids.size()),
                  static_cast<Index>(col_ids.size()));
  for (size_t i = 0; i < row_ids.size(); ++i) {
    HETESIM_CHECK(row_ids[i] >= 0 && row_ids[i] < rows_);
    for (size_t j = 0; j < col_ids.size(); ++j) {
      HETESIM_CHECK(col_ids[j] >= 0 && col_ids[j] < cols_);
      out(static_cast<Index>(i), static_cast<Index>(j)) =
          (*this)(row_ids[i], col_ids[j]);
    }
  }
  return out;
}

DenseMatrix DenseMatrix::Add(const DenseMatrix& other) const {
  HETESIM_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  DenseMatrix out = *this;
  for (size_t i = 0; i < data_.size(); ++i) out.data_[i] += other.data_[i];
  return out;
}

DenseMatrix DenseMatrix::Scale(double factor) const {
  DenseMatrix out = *this;
  for (double& v : out.data_) v *= factor;
  return out;
}

double DenseMatrix::MaxAbsDiff(const DenseMatrix& other) const {
  HETESIM_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  double max_diff = 0.0;
  for (size_t i = 0; i < data_.size(); ++i) {
    max_diff = std::max(max_diff, std::abs(data_[i] - other.data_[i]));
  }
  return max_diff;
}

double DenseMatrix::FrobeniusNorm() const {
  double acc = 0.0;
  for (double v : data_) acc += v * v;
  return std::sqrt(acc);
}

bool DenseMatrix::ApproxEquals(const DenseMatrix& other, double tolerance) const {
  if (rows_ != other.rows_ || cols_ != other.cols_) return false;
  return MaxAbsDiff(other) <= tolerance;
}

std::string DenseMatrix::ToString(int precision) const {
  std::ostringstream out;
  const std::string cell_format = StrFormat("%%.%df", precision);
  for (Index i = 0; i < rows_; ++i) {
    out << "[";
    for (Index j = 0; j < cols_; ++j) {
      if (j != 0) out << ", ";
      out << StrFormat(cell_format.c_str(), (*this)(i, j));
    }
    out << "]\n";
  }
  return out.str();
}

}  // namespace hetesim
