#include "learn/eigen_jacobi.h"

#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"

namespace hetesim {
namespace {

DenseMatrix RandomSymmetric(Index n, uint64_t seed) {
  Rng rng(seed);
  DenseMatrix m(n, n);
  for (Index i = 0; i < n; ++i) {
    for (Index j = i; j < n; ++j) {
      const double v = rng.Normal();
      m(i, j) = v;
      m(j, i) = v;
    }
  }
  return m;
}

TEST(Jacobi, DiagonalMatrix) {
  DenseMatrix d(3, 3);
  d(0, 0) = 3.0;
  d(1, 1) = 1.0;
  d(2, 2) = 2.0;
  EigenDecomposition e = *JacobiEigenSymmetric(d);
  EXPECT_NEAR(e.values[0], 1.0, 1e-12);
  EXPECT_NEAR(e.values[1], 2.0, 1e-12);
  EXPECT_NEAR(e.values[2], 3.0, 1e-12);
}

TEST(Jacobi, Known2x2) {
  // [[2, 1], [1, 2]] has eigenvalues 1 and 3.
  DenseMatrix m(2, 2, {2, 1, 1, 2});
  EigenDecomposition e = *JacobiEigenSymmetric(m);
  EXPECT_NEAR(e.values[0], 1.0, 1e-10);
  EXPECT_NEAR(e.values[1], 3.0, 1e-10);
  // Eigenvector of 1 is (1, -1)/sqrt(2) up to sign.
  EXPECT_NEAR(std::abs(e.vectors(0, 0)), 1.0 / std::sqrt(2.0), 1e-10);
  EXPECT_NEAR(e.vectors(0, 0) + e.vectors(1, 0), 0.0, 1e-10);
}

TEST(Jacobi, ValuesAscending) {
  EigenDecomposition e = *JacobiEigenSymmetric(RandomSymmetric(10, 91));
  for (size_t i = 1; i < e.values.size(); ++i) {
    EXPECT_LE(e.values[i - 1], e.values[i]);
  }
}

TEST(Jacobi, VectorsOrthonormal) {
  EigenDecomposition e = *JacobiEigenSymmetric(RandomSymmetric(8, 92));
  for (Index i = 0; i < 8; ++i) {
    for (Index j = 0; j < 8; ++j) {
      double dot = 0.0;
      for (Index k = 0; k < 8; ++k) dot += e.vectors(k, i) * e.vectors(k, j);
      EXPECT_NEAR(dot, i == j ? 1.0 : 0.0, 1e-9);
    }
  }
}

TEST(Jacobi, ReconstructsInput) {
  DenseMatrix m = RandomSymmetric(7, 93);
  EigenDecomposition e = *JacobiEigenSymmetric(m);
  // A = V diag(lambda) V'.
  DenseMatrix lambda(7, 7);
  for (Index i = 0; i < 7; ++i) lambda(i, i) = e.values[static_cast<size_t>(i)];
  DenseMatrix reconstructed =
      e.vectors.Multiply(lambda).Multiply(e.vectors.Transpose());
  EXPECT_TRUE(reconstructed.ApproxEquals(m, 1e-8));
}

TEST(Jacobi, EigenEquationHolds) {
  DenseMatrix m = RandomSymmetric(6, 94);
  EigenDecomposition e = *JacobiEigenSymmetric(m);
  for (Index v = 0; v < 6; ++v) {
    std::vector<double> x(6);
    for (Index k = 0; k < 6; ++k) x[static_cast<size_t>(k)] = e.vectors(k, v);
    std::vector<double> mx = m.MultiplyVector(x);
    for (Index k = 0; k < 6; ++k) {
      EXPECT_NEAR(mx[static_cast<size_t>(k)],
                  e.values[static_cast<size_t>(v)] * x[static_cast<size_t>(k)], 1e-8);
    }
  }
}

TEST(Jacobi, TraceEqualsEigenvalueSum) {
  DenseMatrix m = RandomSymmetric(9, 95);
  EigenDecomposition e = *JacobiEigenSymmetric(m);
  double trace = 0.0;
  for (Index i = 0; i < 9; ++i) trace += m(i, i);
  double sum = 0.0;
  for (double v : e.values) sum += v;
  EXPECT_NEAR(trace, sum, 1e-9);
}

TEST(Jacobi, PositiveSemidefiniteHasNonNegativeSpectrum) {
  DenseMatrix b = RandomSymmetric(6, 96);
  DenseMatrix psd = b.Multiply(b.Transpose());
  EigenDecomposition e = *JacobiEigenSymmetric(psd);
  for (double v : e.values) EXPECT_GE(v, -1e-9);
}

TEST(Jacobi, IdentityMatrix) {
  EigenDecomposition e = *JacobiEigenSymmetric(DenseMatrix::Identity(4));
  for (double v : e.values) EXPECT_NEAR(v, 1.0, 1e-12);
}

TEST(Jacobi, OneByOne) {
  DenseMatrix m(1, 1, {5.0});
  EigenDecomposition e = *JacobiEigenSymmetric(m);
  EXPECT_DOUBLE_EQ(e.values[0], 5.0);
  EXPECT_NEAR(std::abs(e.vectors(0, 0)), 1.0, 1e-12);
}

TEST(Jacobi, RejectsNonSquare) {
  EXPECT_TRUE(JacobiEigenSymmetric(DenseMatrix(2, 3)).status().IsInvalidArgument());
}

TEST(Jacobi, RejectsAsymmetric) {
  DenseMatrix m(2, 2, {1, 2, 3, 4});
  EXPECT_TRUE(JacobiEigenSymmetric(m).status().IsInvalidArgument());
}

}  // namespace
}  // namespace hetesim
