#include "matrix/ops.h"

#include <cmath>

#include <gtest/gtest.h>

#include "matrix/spgemm.h"
#include "test_util.h"

namespace hetesim {
namespace {

TEST(VectorOps, Dot) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(Dot({}, {}), 0.0);
}

TEST(VectorOps, Norm2) {
  EXPECT_DOUBLE_EQ(Norm2(std::vector<double>{3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(Norm2(std::vector<double>{0, 0}), 0.0);
}

TEST(VectorOps, NormalizeL2) {
  std::vector<double> v = {3, 4};
  NormalizeL2(v);
  EXPECT_DOUBLE_EQ(v[0], 0.6);
  EXPECT_DOUBLE_EQ(v[1], 0.8);
}

TEST(MultiplyDenseSparseParallel, MatchesDenseProduct) {
  SparseMatrix b = testing::RandomBipartiteAdjacency(6, 5, 0.4, 21);
  DenseMatrix a(3, 6);
  for (Index i = 0; i < 3; ++i) {
    for (Index j = 0; j < 6; ++j) a(i, j) = static_cast<double>(i + 2 * j);
  }
  EXPECT_TRUE(MultiplyDenseSparseParallel(a, b).value().ApproxEquals(
      a.Multiply(b.ToDense()), 1e-12));
}

TEST(MultiplyChain, SingleElementIsCopy) {
  SparseMatrix a = testing::RandomBipartiteAdjacency(4, 4, 0.5, 22);
  EXPECT_TRUE(MultiplyChain({a}).value().ApproxEquals(a));
}

TEST(MultiplyChain, ThreeFactorAssociativity) {
  SparseMatrix a = testing::RandomBipartiteAdjacency(4, 6, 0.4, 23);
  SparseMatrix b = testing::RandomBipartiteAdjacency(6, 5, 0.4, 24);
  SparseMatrix c = testing::RandomBipartiteAdjacency(5, 3, 0.4, 25);
  SparseMatrix left_assoc = a.Multiply(b).Multiply(c);
  SparseMatrix right_assoc = a.Multiply(b.Multiply(c));
  SparseMatrix chained = MultiplyChain({a, b, c}).value();
  EXPECT_TRUE(chained.ApproxEquals(left_assoc, 1e-12));
  EXPECT_TRUE(chained.ApproxEquals(right_assoc, 1e-12));
}

TEST(MultiplyChain, LeftToRightMatchesSeedKernelBitwise) {
  SparseMatrix a = testing::RandomBipartiteAdjacency(5, 6, 0.4, 51);
  SparseMatrix b = testing::RandomBipartiteAdjacency(6, 4, 0.4, 52);
  SparseMatrix c = testing::RandomBipartiteAdjacency(4, 7, 0.4, 53);
  SparseMatrix seed = a.Multiply(b).Multiply(c);
  SparseMatrix ltr = MultiplyChainLeftToRight({a, b, c});
  EXPECT_EQ(ltr.row_ptr(), seed.row_ptr());
  EXPECT_EQ(ltr.col_idx(), seed.col_idx());
  EXPECT_EQ(ltr.values(), seed.values());
}

TEST(MultiplyChain, EmptyChainIsInvalidArgument) {
  Result<SparseMatrix> product = MultiplyChain({});
  EXPECT_TRUE(product.status().IsInvalidArgument()) << product.status().ToString();
}

TEST(MultiplyChain, EmptyChainIsInvalidArgumentUnderACancelledContext) {
  // Argument validation precedes the liveness check.
  QueryContext ctx;
  ctx.Cancel();
  Result<SparseMatrix> product = MultiplyChain({}, 1, ctx);
  EXPECT_TRUE(product.status().IsInvalidArgument()) << product.status().ToString();
}

TEST(MultiplyChainLeftToRight, EmptyChainAborts) {
  EXPECT_DEATH({ (void)MultiplyChainLeftToRight({}); }, "CHECK failed");
}

TEST(VectorThroughChain, MatchesMatrixRow) {
  SparseMatrix a = testing::RandomBipartiteAdjacency(5, 7, 0.4, 29);
  SparseMatrix b = testing::RandomBipartiteAdjacency(7, 4, 0.4, 30);
  SparseMatrix product = a.Multiply(b);
  for (Index s = 0; s < 5; ++s) {
    std::vector<double> e(5, 0.0);
    e[static_cast<size_t>(s)] = 1.0;
    std::vector<double> row = VectorThroughChain(e, {a, b});
    std::vector<double> expected = product.RowDense(s);
    ASSERT_EQ(row.size(), expected.size());
    for (size_t j = 0; j < row.size(); ++j) EXPECT_NEAR(row[j], expected[j], 1e-12);
  }
}

TEST(VectorThroughChain, EmptyChainIsIdentity) {
  std::vector<double> x = {1, 2, 3};
  EXPECT_EQ(VectorThroughChain(x, {}), x);
}

TEST(OpsDeath, DotSizeMismatchAborts) {
  EXPECT_DEATH({ (void)Dot({1.0}, {1.0, 2.0}); }, "CHECK failed");
}

}  // namespace
}  // namespace hetesim
