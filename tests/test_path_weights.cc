#include "learn/path_weights.h"

#include <cmath>

#include <gtest/gtest.h>

#include "hin/enumerate.h"
#include "test_util.h"

namespace hetesim {
namespace {

class PathWeightsTest : public ::testing::Test {
 protected:
  PathWeightsTest() : graph_(testing::BuildFig4Graph()) {}
  MetaPath Path(const char* spec) const {
    return *MetaPath::Parse(graph_.schema(), spec);
  }
  HinGraph graph_;
};

TEST_F(PathWeightsTest, WeightsFormDistribution) {
  std::vector<MetaPath> paths = {Path("APC"), Path("APAPC")};
  std::vector<LabeledPair> labels = {{0, 0, 1.0}, {0, 1, 0.0}, {2, 1, 1.0}};
  PathWeightModel model = *LearnPathWeights(graph_, paths, labels);
  ASSERT_EQ(model.weights.size(), 2u);
  double sum = 0.0;
  for (double w : model.weights) {
    EXPECT_GE(w, 0.0);
    sum += w;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST_F(PathWeightsTest, PicksThePathThatExplainsLabels) {
  // Labels follow APC exactly (Tom-KDD high, Tom-SIGMOD zero, Bob-SIGMOD
  // high, Bob-KDD zero); the coauthor path APAPC blurs these, so nearly
  // all weight should land on APC.
  HeteSimEngine engine(graph_);
  MetaPath apc = Path("APC");
  std::vector<LabeledPair> labels;
  for (Index a = 0; a < 3; ++a) {
    for (Index c = 0; c < 2; ++c) {
      labels.push_back({a, c, *engine.ComputePair(apc, a, c)});
    }
  }
  std::vector<MetaPath> paths = {Path("APC"), Path("APAPC")};
  PathWeightModel model = *LearnPathWeights(graph_, paths, labels);
  EXPECT_GT(model.weights[0], 0.9);
  EXPECT_LT(model.training_loss, 1e-3);
}

TEST_F(PathWeightsTest, PerfectFitReachesNearZeroLoss) {
  HeteSimEngine engine(graph_);
  MetaPath apc = Path("APC");
  std::vector<LabeledPair> labels;
  for (Index a = 0; a < 3; ++a) {
    labels.push_back({a, 0, *engine.ComputePair(apc, a, 0)});
  }
  PathWeightModel model = *LearnPathWeights(graph_, {apc}, labels);
  EXPECT_NEAR(model.weights[0], 1.0, 1e-9);
  EXPECT_LT(model.training_loss, 1e-3);
}

TEST_F(PathWeightsTest, CombinedSingleSourceMatchesPairwise) {
  std::vector<MetaPath> paths = {Path("APC"), Path("APAPC")};
  PathWeightModel model;
  model.paths = paths;
  model.weights = {0.5, 0.5};
  std::vector<double> combined = *CombinedSingleSource(graph_, model, 0);
  ASSERT_EQ(combined.size(), 2u);
  HeteSimEngine engine(graph_);
  for (Index c = 0; c < 2; ++c) {
    EXPECT_NEAR(combined[static_cast<size_t>(c)],
                0.5 * *engine.ComputePair(paths[0], 0, c) +
                    0.5 * *engine.ComputePair(paths[1], 0, c),
                1e-12);
  }
}

TEST_F(PathWeightsTest, WorksWithEnumeratedCandidates) {
  TypeId author = *graph_.schema().TypeByCode('A');
  TypeId conf = *graph_.schema().TypeByCode('C');
  EnumerateOptions options;
  options.max_length = 4;
  std::vector<MetaPath> paths =
      *EnumerateMetaPaths(graph_.schema(), author, conf, options);
  ASSERT_GE(paths.size(), 2u);
  std::vector<LabeledPair> labels = {{0, 0, 1.0}, {0, 1, 0.0},
                                     {2, 0, 0.0}, {2, 1, 1.0}};
  PathWeightModel model = *LearnPathWeights(graph_, paths, labels);
  EXPECT_EQ(model.paths.size(), paths.size());
  EXPECT_LT(model.training_loss, 0.25);  // must beat the trivial 0.5 predictor
}

TEST_F(PathWeightsTest, Deterministic) {
  std::vector<MetaPath> paths = {Path("APC"), Path("APAPC")};
  std::vector<LabeledPair> labels = {{0, 0, 0.9}, {1, 1, 0.4}};
  PathWeightModel a = *LearnPathWeights(graph_, paths, labels);
  PathWeightModel b = *LearnPathWeights(graph_, paths, labels);
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.training_loss, b.training_loss);
}

TEST_F(PathWeightsTest, Validation) {
  std::vector<MetaPath> paths = {Path("APC")};
  EXPECT_TRUE(LearnPathWeights(graph_, {}, {{0, 0, 1.0}}).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(LearnPathWeights(graph_, paths, {}).status().IsInvalidArgument());
  EXPECT_TRUE(LearnPathWeights(graph_, paths, {{99, 0, 1.0}}).status()
                  .IsOutOfRange());
  EXPECT_TRUE(LearnPathWeights(graph_, paths, {{0, 0, 1.5}}).status()
                  .IsInvalidArgument());
  // Mixed endpoint types are rejected.
  std::vector<MetaPath> mixed = {Path("APC"), Path("APA")};
  EXPECT_TRUE(LearnPathWeights(graph_, mixed, {{0, 0, 1.0}}).status()
                  .IsInvalidArgument());
  // Bad options.
  PathWeightOptions bad;
  bad.learning_rate = 0.0;
  EXPECT_TRUE(LearnPathWeights(graph_, paths, {{0, 0, 1.0}}, bad).status()
                  .IsInvalidArgument());
}

TEST_F(PathWeightsTest, MalformedModelRejected) {
  PathWeightModel model;  // empty
  EXPECT_TRUE(CombinedSingleSource(graph_, model, 0).status().IsInvalidArgument());
}

}  // namespace
}  // namespace hetesim
