#include "matrix/dense.h"

#include <gtest/gtest.h>

namespace hetesim {
namespace {

TEST(DenseMatrix, DefaultIsEmpty) {
  DenseMatrix m;
  EXPECT_EQ(m.rows(), 0);
  EXPECT_EQ(m.cols(), 0);
  EXPECT_EQ(m.size(), 0);
}

TEST(DenseMatrix, ZeroInitialized) {
  DenseMatrix m(2, 3);
  for (Index i = 0; i < 2; ++i) {
    for (Index j = 0; j < 3; ++j) EXPECT_EQ(m(i, j), 0.0);
  }
}

TEST(DenseMatrix, ConstructFromData) {
  DenseMatrix m(2, 2, {1, 2, 3, 4});
  EXPECT_EQ(m(0, 0), 1);
  EXPECT_EQ(m(0, 1), 2);
  EXPECT_EQ(m(1, 0), 3);
  EXPECT_EQ(m(1, 1), 4);
}

TEST(DenseMatrix, Identity) {
  DenseMatrix eye = DenseMatrix::Identity(3);
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 3; ++j) EXPECT_EQ(eye(i, j), i == j ? 1.0 : 0.0);
  }
}

TEST(DenseMatrix, RowAndColCopies) {
  DenseMatrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m.Row(1), (std::vector<double>{4, 5, 6}));
}

TEST(DenseMatrix, Fill) {
  DenseMatrix m(2, 2);
  m.Fill(7.5);
  EXPECT_EQ(m(1, 1), 7.5);
}

TEST(DenseMatrix, MultiplyKnownProduct) {
  DenseMatrix a(2, 3, {1, 2, 3, 4, 5, 6});
  DenseMatrix b(3, 2, {7, 8, 9, 10, 11, 12});
  DenseMatrix c = a.Multiply(b);
  EXPECT_EQ(c.rows(), 2);
  EXPECT_EQ(c.cols(), 2);
  EXPECT_EQ(c(0, 0), 58);
  EXPECT_EQ(c(0, 1), 64);
  EXPECT_EQ(c(1, 0), 139);
  EXPECT_EQ(c(1, 1), 154);
}

TEST(DenseMatrix, MultiplyByIdentityIsNoop) {
  DenseMatrix a(2, 2, {1, 2, 3, 4});
  EXPECT_TRUE(a.Multiply(DenseMatrix::Identity(2)).ApproxEquals(a));
  EXPECT_TRUE(DenseMatrix::Identity(2).Multiply(a).ApproxEquals(a));
}

TEST(DenseMatrix, MultiplyVector) {
  DenseMatrix a(2, 3, {1, 0, 2, 0, 3, 0});
  EXPECT_EQ(a.MultiplyVector({1, 1, 1}), (std::vector<double>{3, 3}));
}

TEST(DenseMatrix, TransposeInvolution) {
  DenseMatrix a(2, 3, {1, 2, 3, 4, 5, 6});
  DenseMatrix t = a.Transpose();
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 2);
  EXPECT_EQ(t(0, 1), 4);
  EXPECT_TRUE(t.Transpose().ApproxEquals(a));
}

TEST(DenseMatrix, AddScale) {
  DenseMatrix a(1, 2, {1, 2});
  DenseMatrix b(1, 2, {10, 20});
  EXPECT_TRUE(a.Add(b).ApproxEquals(DenseMatrix(1, 2, {11, 22})));
  EXPECT_TRUE(a.Scale(3).ApproxEquals(DenseMatrix(1, 2, {3, 6})));
}

TEST(DenseMatrix, SubmatrixSelectsAndReorders) {
  DenseMatrix m(3, 3, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  DenseMatrix sub = m.Submatrix({2, 0}, {1, 1, 0});
  EXPECT_EQ(sub.rows(), 2);
  EXPECT_EQ(sub.cols(), 3);
  EXPECT_EQ(sub(0, 0), 8);  // row 2, col 1
  EXPECT_EQ(sub(0, 1), 8);  // repeated column
  EXPECT_EQ(sub(0, 2), 7);
  EXPECT_EQ(sub(1, 0), 2);
  EXPECT_EQ(sub(1, 2), 1);
}

TEST(DenseMatrix, SubmatrixEmptySelection) {
  DenseMatrix m(2, 2, {1, 2, 3, 4});
  DenseMatrix sub = m.Submatrix({}, {});
  EXPECT_EQ(sub.rows(), 0);
  EXPECT_EQ(sub.cols(), 0);
}

TEST(DenseMatrixDeath, SubmatrixOutOfRangeAborts) {
  DenseMatrix m(2, 2);
  EXPECT_DEATH({ (void)m.Submatrix({5}, {0}); }, "CHECK failed");
}

TEST(DenseMatrix, MaxAbsDiffAndApproxEquals) {
  DenseMatrix a(1, 2, {1.0, 2.0});
  DenseMatrix b(1, 2, {1.0, 2.5});
  EXPECT_DOUBLE_EQ(a.MaxAbsDiff(b), 0.5);
  EXPECT_FALSE(a.ApproxEquals(b, 0.4));
  EXPECT_TRUE(a.ApproxEquals(b, 0.5));
}

TEST(DenseMatrix, ApproxEqualsShapeMismatch) {
  EXPECT_FALSE(DenseMatrix(1, 2).ApproxEquals(DenseMatrix(2, 1)));
}

TEST(DenseMatrix, FrobeniusNorm) {
  DenseMatrix a(1, 2, {3, 4});
  EXPECT_DOUBLE_EQ(a.FrobeniusNorm(), 5.0);
}

TEST(DenseMatrix, ToStringRendersRows) {
  DenseMatrix a(2, 1, {1, 2});
  EXPECT_EQ(a.ToString(1), "[1.0]\n[2.0]\n");
}

TEST(DenseMatrixDeath, BadDataSizeAborts) {
  EXPECT_DEATH({ DenseMatrix m(2, 2, {1.0}); (void)m; }, "CHECK failed");
}

TEST(DenseMatrixDeath, MultiplyShapeMismatchAborts) {
  DenseMatrix a(2, 3);
  DenseMatrix b(2, 3);
  EXPECT_DEATH({ (void)a.Multiply(b); }, "CHECK failed");
}

}  // namespace
}  // namespace hetesim
