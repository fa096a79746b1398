#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "hin/builder.h"
#include "hin/graph.h"
#include "test_util.h"

namespace hetesim {
namespace {

TEST(HinGraphBuilder, NodesById) {
  HinGraphBuilder builder;
  TypeId t = *builder.AddObjectType("thing");
  EXPECT_EQ(builder.AddNode(t, "x"), 0);
  EXPECT_EQ(builder.AddNode(t, "y"), 1);
  EXPECT_EQ(builder.AddNode(t, "x"), 0);  // duplicate name returns existing id
  EXPECT_EQ(builder.NumNodes(t), 2);
}

TEST(HinGraphBuilder, AnonymousNodes) {
  HinGraphBuilder builder;
  TypeId t = *builder.AddObjectType("thing");
  EXPECT_EQ(builder.AddNodes(t, 5), 0);
  EXPECT_EQ(builder.AddNodes(t, 3), 5);
  EXPECT_EQ(builder.NumNodes(t), 8);
  HinGraph g = std::move(builder).Build();
  EXPECT_EQ(g.NodeName(t, 3), "");
}

TEST(HinGraphBuilder, EdgeValidation) {
  HinGraphBuilder builder;
  TypeId a = *builder.AddObjectType("alpha");
  TypeId b = *builder.AddObjectType("beta");
  RelationId r = *builder.AddRelation("r", a, b);
  builder.AddNode(a, "a0");
  builder.AddNode(b, "b0");
  EXPECT_TRUE(builder.AddEdge(r, 0, 0).ok());
  EXPECT_TRUE(builder.AddEdge(r, 5, 0).IsOutOfRange());
  EXPECT_TRUE(builder.AddEdge(r, 0, 5).IsOutOfRange());
  EXPECT_TRUE(builder.AddEdge(99, 0, 0).IsInvalidArgument());
  EXPECT_TRUE(builder.AddEdge(r, 0, 0, 0.0).IsInvalidArgument());
  EXPECT_TRUE(builder.AddEdge(r, 0, 0, -1.0).IsInvalidArgument());
}

TEST(HinGraphBuilder, AddEdgeByNameAutoCreates) {
  HinGraphBuilder builder;
  TypeId a = *builder.AddObjectType("alpha");
  TypeId b = *builder.AddObjectType("beta");
  RelationId r = *builder.AddRelation("r", a, b);
  EXPECT_TRUE(builder.AddEdgeByName(r, "x", "y").ok());
  EXPECT_EQ(builder.NumNodes(a), 1);
  EXPECT_EQ(builder.NumNodes(b), 1);
  EXPECT_TRUE(builder.AddEdgeByName(r, "", "y").IsInvalidArgument());
}

TEST(HinGraphBuilder, DuplicateEdgesSumWeights) {
  HinGraphBuilder builder;
  TypeId a = *builder.AddObjectType("alpha");
  TypeId b = *builder.AddObjectType("beta");
  RelationId r = *builder.AddRelation("r", a, b);
  builder.AddNode(a);
  builder.AddNode(b);
  EXPECT_TRUE(builder.AddEdge(r, 0, 0, 1.0).ok());
  EXPECT_TRUE(builder.AddEdge(r, 0, 0, 2.5).ok());
  HinGraph g = std::move(builder).Build();
  EXPECT_EQ(g.Adjacency(r).At(0, 0), 3.5);
  EXPECT_EQ(g.Adjacency(r).NumNonZeros(), 1);
}

TEST(HinGraph, Fig4Structure) {
  HinGraph g = testing::BuildFig4Graph();
  const Schema& schema = g.schema();
  TypeId author = *schema.TypeByCode('A');
  TypeId paper = *schema.TypeByCode('P');
  TypeId conf = *schema.TypeByCode('C');
  EXPECT_EQ(g.NumNodes(author), 3);
  EXPECT_EQ(g.NumNodes(paper), 5);
  EXPECT_EQ(g.NumNodes(conf), 2);
  EXPECT_EQ(g.TotalNodes(), 10);
  EXPECT_EQ(g.TotalEdges(), 12);
}

TEST(HinGraph, FindNode) {
  HinGraph g = testing::BuildFig4Graph();
  TypeId author = *g.schema().TypeByCode('A');
  EXPECT_EQ(*g.FindNode(author, "Tom"), 0);
  EXPECT_EQ(*g.FindNode(author, "Bob"), 2);
  EXPECT_TRUE(g.FindNode(author, "Nobody").status().IsNotFound());
  EXPECT_TRUE(g.FindNode(-1, "Tom").status().IsInvalidArgument());
}

TEST(HinGraph, NodeNames) {
  HinGraph g = testing::BuildFig4Graph();
  TypeId conf = *g.schema().TypeByCode('C');
  EXPECT_EQ(g.NodeName(conf, 0), "KDD");
  EXPECT_EQ(g.NodeName(conf, 1), "SIGMOD");
  EXPECT_EQ(g.NodeName(conf, 99), "");  // out of range -> empty, no crash
}

TEST(HinGraph, AdjacencyShapeAndTranspose) {
  HinGraph g = testing::BuildFig4Graph();
  RelationId writes = *g.schema().RelationByName("writes");
  const SparseMatrix& w = g.Adjacency(writes);
  EXPECT_EQ(w.rows(), 3);
  EXPECT_EQ(w.cols(), 5);
  EXPECT_TRUE(g.AdjacencyTranspose(writes).ApproxEquals(w.Transpose()));
}

TEST(HinGraph, StepAdjacencyOrientation) {
  HinGraph g = testing::BuildFig4Graph();
  RelationId writes = *g.schema().RelationByName("writes");
  RelationStep forward{writes, true};
  RelationStep backward{writes, false};
  EXPECT_EQ(g.StepAdjacency(forward).rows(), 3);
  EXPECT_EQ(g.StepAdjacency(backward).rows(), 5);
}

TEST(HinGraph, StepTransitionIsRowStochastic) {
  HinGraph g = testing::BuildFig4Graph();
  RelationId writes = *g.schema().RelationByName("writes");
  SparseMatrix u = g.StepTransition({writes, true});
  for (Index r = 0; r < u.rows(); ++r) EXPECT_NEAR(u.RowSum(r), 1.0, 1e-12);
  // Tom wrote two papers: uniform 1/2 each.
  EXPECT_DOUBLE_EQ(u.At(0, 0), 0.5);
  EXPECT_DOUBLE_EQ(u.At(0, 1), 0.5);
}

TEST(HinGraph, Degrees) {
  HinGraph g = testing::BuildFig4Graph();
  RelationId writes = *g.schema().RelationByName("writes");
  EXPECT_EQ(g.Adjacency(writes).RowNnz(0), 2);           // Tom
  EXPECT_EQ(g.Adjacency(writes).RowNnz(1), 3);           // Mary
  EXPECT_EQ(g.AdjacencyTranspose(writes).RowNnz(1), 2);  // p2 by Tom and Mary
}

TEST(HinGraph, SummaryMentionsTypesAndRelations) {
  HinGraph g = testing::BuildFig4Graph();
  std::string summary = g.Summary();
  EXPECT_NE(summary.find("author"), std::string::npos);
  EXPECT_NE(summary.find("writes"), std::string::npos);
  EXPECT_NE(summary.find("10 nodes"), std::string::npos);
}

TEST(HinGraphBuilder, NonFiniteWeightsRejected) {
  HinGraphBuilder b;
  TypeId a = *b.AddObjectType("alpha");
  TypeId p = *b.AddObjectType("beta");
  RelationId r = *b.AddRelation("rel", a, p);
  b.AddNodes(a, 2);
  b.AddNodes(p, 2);
  EXPECT_TRUE(b.AddEdge(r, 0, 0, std::nan("")).IsInvalidArgument());
  EXPECT_TRUE(
      b.AddEdge(r, 0, 0, std::numeric_limits<double>::infinity()).IsInvalidArgument());
  EXPECT_TRUE(b.AddEdge(r, 0, 0, -1.0).IsInvalidArgument());
  EXPECT_TRUE(b.AddEdge(r, 0, 0, 0.0).IsInvalidArgument());
  EXPECT_TRUE(b.AddEdge(r, 0, 0, 1.0).ok());
}

TEST(HinGraph, CopyIsIndependent) {
  HinGraph g = testing::BuildFig4Graph();
  HinGraph copy = g;
  EXPECT_EQ(copy.TotalNodes(), g.TotalNodes());
  EXPECT_EQ(copy.TotalEdges(), g.TotalEdges());
}

}  // namespace
}  // namespace hetesim
