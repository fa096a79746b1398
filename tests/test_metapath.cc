#include "hin/metapath.h"

#include <gtest/gtest.h>

#include "test_util.h"

namespace hetesim {
namespace {

class MetaPathTest : public ::testing::Test {
 protected:
  MetaPathTest() : graph_(testing::BuildFig4Graph()) {}
  const Schema& schema() const { return graph_.schema(); }
  HinGraph graph_;
};

TEST_F(MetaPathTest, ParseCompactCodes) {
  Result<MetaPath> path = MetaPath::Parse(schema(), "APC");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->length(), 2);
  EXPECT_EQ(path->ToString(), "A-P-C");
}

TEST_F(MetaPathTest, ParseDashSeparatedCodes) {
  Result<MetaPath> path = MetaPath::Parse(schema(), "A-P-C");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->ToString(), "A-P-C");
}

TEST_F(MetaPathTest, ParseFullTypeNames) {
  Result<MetaPath> path = MetaPath::Parse(schema(), "author-paper-conference");
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->ToString(), "A-P-C");
}

TEST_F(MetaPathTest, ParseBackwardSteps) {
  Result<MetaPath> path = MetaPath::Parse(schema(), "C-P-A");
  ASSERT_TRUE(path.ok());
  EXPECT_FALSE(path->StepAt(0).forward);
  EXPECT_FALSE(path->StepAt(1).forward);
  EXPECT_EQ(path->ToRelationString(), "~published_in,~writes");
}

TEST_F(MetaPathTest, ParseErrors) {
  EXPECT_TRUE(MetaPath::Parse(schema(), "").status().IsInvalidArgument());
  EXPECT_TRUE(MetaPath::Parse(schema(), "A").status().IsInvalidArgument());
  EXPECT_TRUE(MetaPath::Parse(schema(), "AX").status().IsNotFound());
  // A and C are not directly connected.
  EXPECT_TRUE(MetaPath::Parse(schema(), "AC").status().IsInvalidArgument());
}

TEST_F(MetaPathTest, ParseAmbiguousPairNeedsRelations) {
  Schema ambiguous;
  TypeId a = *ambiguous.AddObjectType("alpha");
  TypeId b = *ambiguous.AddObjectType("beta");
  EXPECT_TRUE(ambiguous.AddRelation("r1", a, b).ok());
  EXPECT_TRUE(ambiguous.AddRelation("r2", a, b).ok());
  Result<MetaPath> by_types = MetaPath::Parse(ambiguous, "AB");
  EXPECT_TRUE(by_types.status().IsInvalidArgument());
  EXPECT_NE(by_types.status().message().find("FromRelations"), std::string::npos);
  Result<MetaPath> by_relations = MetaPath::FromRelations(ambiguous, {"r2"});
  ASSERT_TRUE(by_relations.ok());
  EXPECT_EQ(by_relations->ToRelationString(), "r2");
}

TEST_F(MetaPathTest, FromRelationsWithInverse) {
  Result<MetaPath> path =
      MetaPath::FromRelations(schema(), {"writes", "~writes"});
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path->ToString(), "A-P-A");
  EXPECT_TRUE(path->IsSymmetric());
}

TEST_F(MetaPathTest, FromRelationsErrors) {
  EXPECT_TRUE(MetaPath::FromRelations(schema(), {}).status().IsInvalidArgument());
  EXPECT_TRUE(MetaPath::FromRelations(schema(), {"nope"}).status().IsNotFound());
  // writes ends at paper; writes cannot follow itself.
  EXPECT_TRUE(MetaPath::FromRelations(schema(), {"writes", "writes"})
                  .status()
                  .IsInvalidArgument());
}

TEST_F(MetaPathTest, FromStepsValidatesContiguity) {
  RelationId writes = *schema().RelationByName("writes");
  RelationId published = *schema().RelationByName("published_in");
  EXPECT_TRUE(MetaPath::FromSteps(schema(), {{writes, true}, {published, true}}).ok());
  EXPECT_TRUE(MetaPath::FromSteps(schema(), {{writes, true}, {writes, true}})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(MetaPath::FromSteps(schema(), {}).status().IsInvalidArgument());
  EXPECT_TRUE(MetaPath::FromSteps(schema(), {{99, true}}).status().IsInvalidArgument());
}

TEST_F(MetaPathTest, TypeSequence) {
  MetaPath path = *MetaPath::Parse(schema(), "APC");
  EXPECT_EQ(path.SourceType(), *schema().TypeByCode('A'));
  EXPECT_EQ(path.TypeAt(1), *schema().TypeByCode('P'));
  EXPECT_EQ(path.TargetType(), *schema().TypeByCode('C'));
}

TEST_F(MetaPathTest, ReverseInvertsStepsAndOrder) {
  MetaPath path = *MetaPath::Parse(schema(), "APC");
  MetaPath reversed = path.Reverse();
  EXPECT_EQ(reversed.ToString(), "C-P-A");
  EXPECT_EQ(reversed.SourceType(), path.TargetType());
  EXPECT_EQ(reversed.Reverse(), path);  // involution
}

TEST_F(MetaPathTest, SymmetryDetection) {
  EXPECT_TRUE(MetaPath::Parse(schema(), "APA")->IsSymmetric());
  EXPECT_TRUE(MetaPath::Parse(schema(), "APCPA")->IsSymmetric());
  EXPECT_TRUE(MetaPath::Parse(schema(), "PCP")->IsSymmetric());
  EXPECT_FALSE(MetaPath::Parse(schema(), "APC")->IsSymmetric());
  EXPECT_FALSE(MetaPath::Parse(schema(), "APCP")->IsSymmetric());
  // Symmetric paths equal their own reverse; source == target type.
  MetaPath apa = *MetaPath::Parse(schema(), "APA");
  EXPECT_EQ(apa, apa.Reverse());
}

TEST_F(MetaPathTest, OddLengthPathNeverSymmetric) {
  EXPECT_FALSE(MetaPath::Parse(schema(), "AP")->IsSymmetric());
  EXPECT_FALSE(MetaPath::Parse(schema(), "APC")->IsSymmetric());
}

TEST_F(MetaPathTest, EqualityRequiresSameSchemaObject) {
  HinGraph other = testing::BuildFig4Graph();
  MetaPath p1 = *MetaPath::Parse(schema(), "APC");
  MetaPath p2 = *MetaPath::Parse(other.schema(), "APC");
  EXPECT_FALSE(p1 == p2);  // structurally equal but different schema objects
  EXPECT_EQ(p1.ToString(), p2.ToString());
}

}  // namespace
}  // namespace hetesim
