#include "matrix/sparse.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "core/frontier.h"
#include "matrix/spgemm.h"
#include "test_util.h"

namespace hetesim {
namespace {

SparseMatrix Sample2x3() {
  // [1 0 2]
  // [0 3 0]
  return SparseMatrix::FromTriplets(2, 3, {{0, 0, 1.0}, {0, 2, 2.0}, {1, 1, 3.0}});
}

TEST(SparseMatrix, EmptyShape) {
  SparseMatrix m(3, 4);
  EXPECT_EQ(m.rows(), 3);
  EXPECT_EQ(m.cols(), 4);
  EXPECT_EQ(m.NumNonZeros(), 0);
  EXPECT_EQ(m.At(1, 1), 0.0);
}

TEST(SparseMatrix, FromTripletsBasic) {
  SparseMatrix m = Sample2x3();
  EXPECT_EQ(m.NumNonZeros(), 3);
  EXPECT_EQ(m.At(0, 0), 1.0);
  EXPECT_EQ(m.At(0, 1), 0.0);
  EXPECT_EQ(m.At(0, 2), 2.0);
  EXPECT_EQ(m.At(1, 1), 3.0);
}

TEST(SparseMatrix, FromTripletsSumsDuplicates) {
  SparseMatrix m = SparseMatrix::FromTriplets(1, 1, {{0, 0, 1.5}, {0, 0, 2.5}});
  EXPECT_EQ(m.NumNonZeros(), 1);
  EXPECT_EQ(m.At(0, 0), 4.0);
}

TEST(SparseMatrix, FromTripletsDropsCancellations) {
  SparseMatrix m = SparseMatrix::FromTriplets(1, 2, {{0, 0, 1.0}, {0, 0, -1.0},
                                                     {0, 1, 2.0}});
  EXPECT_EQ(m.NumNonZeros(), 1);
  EXPECT_EQ(m.At(0, 1), 2.0);
}

TEST(SparseMatrix, FromTripletsUnsortedInput) {
  SparseMatrix m = SparseMatrix::FromTriplets(
      2, 2, {{1, 1, 4.0}, {0, 1, 2.0}, {1, 0, 3.0}, {0, 0, 1.0}});
  EXPECT_EQ(m.At(0, 0), 1.0);
  EXPECT_EQ(m.At(0, 1), 2.0);
  EXPECT_EQ(m.At(1, 0), 3.0);
  EXPECT_EQ(m.At(1, 1), 4.0);
  // Column indices sorted within each row.
  auto row0 = m.RowIndices(0);
  EXPECT_TRUE(std::is_sorted(row0.begin(), row0.end()));
}

TEST(SparseMatrix, RowAccessors) {
  SparseMatrix m = Sample2x3();
  auto indices = m.RowIndices(0);
  auto values = m.RowValues(0);
  ASSERT_EQ(indices.size(), 2u);
  EXPECT_EQ(indices[0], 0);
  EXPECT_EQ(indices[1], 2);
  EXPECT_EQ(values[0], 1.0);
  EXPECT_EQ(values[1], 2.0);
  EXPECT_EQ(m.RowNnz(0), 2);
  EXPECT_EQ(m.RowNnz(1), 1);
  EXPECT_EQ(m.RowSum(0), 3.0);
}

TEST(SparseMatrix, IdentityRoundTrip) {
  SparseMatrix eye = SparseMatrix::Identity(4);
  EXPECT_EQ(eye.NumNonZeros(), 4);
  EXPECT_TRUE(eye.ToDense().ApproxEquals(DenseMatrix::Identity(4)));
}

TEST(SparseMatrix, DenseRoundTrip) {
  DenseMatrix d(2, 3, {1, 0, 2, 0, 3, 0});
  SparseMatrix s = SparseMatrix::FromDense(d);
  EXPECT_EQ(s.NumNonZeros(), 3);
  EXPECT_TRUE(s.ToDense().ApproxEquals(d));
}

TEST(SparseMatrix, FromDenseThreshold) {
  DenseMatrix d(1, 3, {0.05, 0.5, -0.01});
  SparseMatrix s = SparseMatrix::FromDense(d, 0.1);
  EXPECT_EQ(s.NumNonZeros(), 1);
  EXPECT_EQ(s.At(0, 1), 0.5);
}

TEST(SparseMatrix, TransposeMatchesDense) {
  SparseMatrix m = testing::RandomBipartiteAdjacency(13, 9, 0.25, 5);
  EXPECT_TRUE(m.Transpose().ToDense().ApproxEquals(m.ToDense().Transpose()));
}

TEST(SparseMatrix, TransposeInvolution) {
  SparseMatrix m = testing::RandomBipartiteAdjacency(8, 11, 0.3, 6);
  EXPECT_TRUE(m.Transpose().Transpose().ApproxEquals(m));
}

TEST(SparseMatrix, MultiplyMatchesDense) {
  SparseMatrix a = testing::RandomBipartiteAdjacency(7, 10, 0.3, 7);
  SparseMatrix b = testing::RandomBipartiteAdjacency(10, 6, 0.3, 8);
  EXPECT_TRUE(a.Multiply(b).ToDense().ApproxEquals(
      a.ToDense().Multiply(b.ToDense()), 1e-12));
}

TEST(SparseMatrix, MultiplyByIdentity) {
  SparseMatrix a = testing::RandomBipartiteAdjacency(5, 5, 0.4, 9);
  EXPECT_TRUE(a.Multiply(SparseMatrix::Identity(5)).ApproxEquals(a));
  EXPECT_TRUE(SparseMatrix::Identity(5).Multiply(a).ApproxEquals(a));
}

TEST(SparseMatrix, SparseDenseKernelMatchesDenseProduct) {
  SparseMatrix a = Sample2x3();
  DenseMatrix b(3, 2, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(
      MultiplySparseDenseParallel(a, b).value().ApproxEquals(a.ToDense().Multiply(b)));
}

TEST(SparseMatrix, MultiplyVector) {
  SparseMatrix a = Sample2x3();
  EXPECT_EQ(a.MultiplyVector({1, 1, 1}), (std::vector<double>{3, 3}));
}

TEST(SparseMatrix, LeftMultiplyVector) {
  SparseMatrix a = Sample2x3();
  // [1 1] * A = [1 3 2]
  EXPECT_EQ(a.LeftMultiplyVector({1, 1}), (std::vector<double>{1, 3, 2}));
}

TEST(SparseMatrix, RowNormalizedIsStochastic) {
  SparseMatrix m = testing::RandomBipartiteAdjacency(10, 8, 0.3, 10);
  SparseMatrix u = m.RowNormalized();
  for (Index r = 0; r < u.rows(); ++r) {
    if (u.RowNnz(r) > 0) {
      EXPECT_NEAR(u.RowSum(r), 1.0, 1e-12);
    }
  }
  EXPECT_EQ(u.NumNonZeros(), m.NumNonZeros());  // structure preserved
}

TEST(SparseMatrix, RowNormalizedLeavesZeroRows) {
  SparseMatrix m = SparseMatrix::FromTriplets(3, 2, {{0, 0, 2.0}});
  SparseMatrix u = m.RowNormalized();
  EXPECT_EQ(u.At(0, 0), 1.0);
  EXPECT_EQ(u.RowNnz(1), 0);
}

TEST(SparseMatrix, ColNormalizedIsColumnStochastic) {
  SparseMatrix m = testing::RandomBipartiteAdjacency(10, 8, 0.3, 11);
  SparseMatrix v = m.ColNormalized();
  SparseMatrix vt = v.Transpose();
  for (Index c = 0; c < vt.rows(); ++c) {
    if (vt.RowNnz(c) > 0) {
      EXPECT_NEAR(vt.RowSum(c), 1.0, 1e-12);
    }
  }
}

TEST(SparseMatrix, Property2ColNormalizedIsTransposedRowNormalized) {
  // Definition 8 / Property 2 of the paper: V_AB = U_BA'.
  SparseMatrix w = testing::RandomBipartiteAdjacency(12, 7, 0.3, 12);
  SparseMatrix v_ab = w.ColNormalized();
  SparseMatrix u_ba = w.Transpose().RowNormalized();
  EXPECT_TRUE(v_ab.ApproxEquals(u_ba.Transpose(), 1e-12));
}

TEST(SparseMatrix, Add) {
  SparseMatrix a = Sample2x3();
  SparseMatrix sum = a.Add(a);
  EXPECT_EQ(sum.At(1, 1), 6.0);
  EXPECT_EQ(sum.NumNonZeros(), a.NumNonZeros());
}

/// `RowCosine` (core/frontier.h) of rows `r` and `s` of `a`.
double CosineOfRows(const SparseMatrix& a, Index r, Index s, bool normalized) {
  return RowCosine(a.RowIndices(r), a.RowValues(r), a.RowIndices(s),
                   a.RowValues(s), normalized);
}

TEST(SparseMatrix, RowDotSparseRows) {
  SparseMatrix a = SparseMatrix::FromTriplets(2, 4, {{0, 0, 1.0}, {0, 2, 2.0},
                                                     {1, 2, 3.0}, {1, 3, 1.0}});
  EXPECT_EQ(CosineOfRows(a, 0, 1, false), 6.0);  // overlap only at column 2
  EXPECT_EQ(CosineOfRows(a, 0, 0, false), 5.0);
}

TEST(SparseMatrix, RowNormAndCosine) {
  SparseMatrix a = SparseMatrix::FromTriplets(3, 2, {{0, 0, 3.0}, {0, 1, 4.0},
                                                     {1, 0, 1.0}});
  EXPECT_DOUBLE_EQ(a.RowNorm(0), 5.0);
  EXPECT_DOUBLE_EQ(CosineOfRows(a, 0, 0, true), 1.0);
  EXPECT_DOUBLE_EQ(CosineOfRows(a, 0, 1, true), 3.0 / 5.0);
  EXPECT_EQ(CosineOfRows(a, 0, 2, true), 0.0);  // zero row: cosine defined as 0
}

TEST(SparseMatrix, RowDense) {
  SparseMatrix a = Sample2x3();
  EXPECT_EQ(a.RowDense(0), (std::vector<double>{1, 0, 2}));
  EXPECT_EQ(a.RowDense(1), (std::vector<double>{0, 3, 0}));
}

TEST(SparseMatrix, Density) {
  EXPECT_DOUBLE_EQ(Sample2x3().Density(), 0.5);
  EXPECT_EQ(SparseMatrix().Density(), 0.0);
}

TEST(SparseMatrix, ApproxEqualsDifferentStructure) {
  // Same numeric content, different explicit-zero structure.
  SparseMatrix a = SparseMatrix::FromTriplets(1, 2, {{0, 0, 1.0}});
  SparseMatrix b = SparseMatrix::FromTriplets(1, 2, {{0, 0, 1.0}, {0, 1, 1e-15}});
  EXPECT_TRUE(a.ApproxEquals(b, 1e-12));
  EXPECT_FALSE(a.ApproxEquals(b, 1e-16));
}

TEST(SparseMatrix, ApproxEqualsShapeMismatch) {
  EXPECT_FALSE(SparseMatrix(1, 2).ApproxEquals(SparseMatrix(2, 1)));
}

TEST(SparseMatrixDeath, OutOfBoundsTripletAborts) {
  EXPECT_DEATH(
      { (void)SparseMatrix::FromTriplets(1, 1, {{0, 5, 1.0}}); },
      "out of bounds");
}

TEST(SparseMatrixDeath, MultiplyShapeMismatchAborts) {
  SparseMatrix a(2, 3);
  SparseMatrix b(2, 3);
  EXPECT_DEATH({ (void)a.Multiply(b); }, "CHECK failed");
}

}  // namespace
}  // namespace hetesim
