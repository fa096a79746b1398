#include "baselines/pathsim.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace hetesim {
namespace {

MetaPath Parse(const HinGraph& g, const char* spec) {
  return *MetaPath::Parse(g.schema(), spec);
}

TEST(PathSim, RequiresSymmetricPath) {
  HinGraph g = testing::BuildFig4Graph();
  EXPECT_TRUE(PathSimMatrix(g, Parse(g, "APC")).status().IsInvalidArgument());
  EXPECT_TRUE(PathSimSingleSource(g, Parse(g, "AP"), 0).status().IsInvalidArgument());
}

TEST(PathSim, SelfSimilarityIsOne) {
  HinGraph g = testing::BuildFig4Graph();
  DenseMatrix s = *PathSimMatrix(g, Parse(g, "APA"));
  for (Index i = 0; i < s.rows(); ++i) EXPECT_DOUBLE_EQ(s(i, i), 1.0);
}

TEST(PathSim, SymmetricMatrix) {
  HinGraph g = testing::BuildFig4Graph();
  DenseMatrix s = *PathSimMatrix(g, Parse(g, "APCPA"));
  EXPECT_TRUE(s.ApproxEquals(s.Transpose(), 1e-12));
}

TEST(PathSim, KnownValuesOnFig4Apa) {
  // Path counts along A-P-A: count(a,b) = shared papers. Tom/Mary share p2;
  // Tom has 2 papers, Mary 3.
  // PathSim(Tom, Mary) = 2*1 / (2 + 3) = 0.4.
  HinGraph g = testing::BuildFig4Graph();
  DenseMatrix s = *PathSimMatrix(g, Parse(g, "APA"));
  EXPECT_NEAR(s(0, 1), 0.4, 1e-12);
  // Tom and Bob share no papers.
  EXPECT_DOUBLE_EQ(s(0, 2), 0.0);
  // Mary/Bob share p4: 2*1 / (3 + 2) = 0.4.
  EXPECT_NEAR(s(1, 2), 0.4, 1e-12);
}

TEST(PathSim, ValuesInUnitInterval) {
  HinGraph g = testing::RandomTripartite(8, 10, 6, 0.3, 71);
  DenseMatrix s = *PathSimMatrix(g, Parse(g, "ABA"));
  for (Index i = 0; i < s.rows(); ++i) {
    for (Index j = 0; j < s.cols(); ++j) {
      EXPECT_GE(s(i, j), 0.0);
      EXPECT_LE(s(i, j), 1.0 + 1e-12);
    }
  }
}

TEST(PathSim, SingleSourceMatchesMatrix) {
  HinGraph g = testing::RandomTripartite(6, 9, 5, 0.3, 72);
  MetaPath aba = Parse(g, "ABA");
  DenseMatrix s = *PathSimMatrix(g, aba);
  for (Index i = 0; i < s.rows(); ++i) {
    std::vector<double> row = *PathSimSingleSource(g, aba, i);
    for (Index j = 0; j < s.cols(); ++j) {
      EXPECT_NEAR(row[static_cast<size_t>(j)], s(i, j), 1e-12);
    }
  }
}

TEST(PathSim, OutOfRangeErrors) {
  HinGraph g = testing::BuildFig4Graph();
  MetaPath apa = Parse(g, "APA");
  EXPECT_TRUE(PathSimSingleSource(g, apa, 99).status().IsOutOfRange());
  EXPECT_TRUE(PathSimSingleSource(g, apa, -1).status().IsOutOfRange());
}

TEST(PathSim, IsolatedPairScoresZero) {
  HinGraphBuilder builder;
  TypeId a = *builder.AddObjectType("alpha");
  TypeId b = *builder.AddObjectType("beta");
  RelationId r = *builder.AddRelation("r", a, b);
  builder.AddNode(a, "x");
  builder.AddNode(a, "y");
  builder.AddNode(b, "t");
  (void)r;
  HinGraph g = std::move(builder).Build();
  MetaPath aba = Parse(g, "ABA");
  // No edges at all: all counts zero, denominator zero -> similarity 0.
  DenseMatrix s = *PathSimMatrix(g, aba);
  EXPECT_EQ(s(0, 0), 0.0);
  EXPECT_EQ(s(0, 1), 0.0);
}

}  // namespace
}  // namespace hetesim
