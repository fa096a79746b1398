#include "learn/metrics.h"

#include <gtest/gtest.h>

namespace hetesim {
namespace {

// --- NMI ---

TEST(Nmi, IdenticalPartitionsScoreOne) {
  std::vector<int> labels = {0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(*NormalizedMutualInformation(labels, labels), 1.0);
}

TEST(Nmi, RelabeledPartitionsScoreOne) {
  std::vector<int> a = {0, 0, 1, 1, 2, 2};
  std::vector<int> b = {5, 5, 3, 3, 9, 9};
  EXPECT_NEAR(*NormalizedMutualInformation(a, b), 1.0, 1e-12);
}

TEST(Nmi, IndependentPartitionsScoreLow) {
  // b splits each a-cluster exactly in half: I(X;Y) = H(b-within) pattern;
  // with balanced 2x2 independence NMI is 0.
  std::vector<int> a = {0, 0, 1, 1};
  std::vector<int> b = {0, 1, 0, 1};
  EXPECT_NEAR(*NormalizedMutualInformation(a, b), 0.0, 1e-12);
}

TEST(Nmi, PartialAgreementBetweenZeroAndOne) {
  std::vector<int> a = {0, 0, 0, 1, 1, 1};
  std::vector<int> b = {0, 0, 1, 1, 1, 1};
  double nmi = *NormalizedMutualInformation(a, b);
  EXPECT_GT(nmi, 0.0);
  EXPECT_LT(nmi, 1.0);
}

TEST(Nmi, SymmetricInArguments) {
  std::vector<int> a = {0, 0, 1, 1, 2, 2};
  std::vector<int> b = {0, 1, 1, 2, 2, 2};
  EXPECT_NEAR(*NormalizedMutualInformation(a, b),
              *NormalizedMutualInformation(b, a), 1e-12);
}

TEST(Nmi, SingleClusterConventions) {
  std::vector<int> flat = {0, 0, 0};
  std::vector<int> split = {0, 1, 2};
  EXPECT_DOUBLE_EQ(*NormalizedMutualInformation(flat, flat), 1.0);
  EXPECT_DOUBLE_EQ(*NormalizedMutualInformation(flat, split), 0.0);
}

TEST(Nmi, Validation) {
  EXPECT_TRUE(NormalizedMutualInformation({0, 1}, {0}).status().IsInvalidArgument());
  EXPECT_TRUE(NormalizedMutualInformation({}, {}).status().IsInvalidArgument());
}

// --- AUC ---

TEST(Auc, PerfectRankingScoresOne) {
  EXPECT_DOUBLE_EQ(*AreaUnderRoc({0.9, 0.8, 0.2, 0.1},
                                 {true, true, false, false}), 1.0);
}

TEST(Auc, ReversedRankingScoresZero) {
  EXPECT_DOUBLE_EQ(*AreaUnderRoc({0.1, 0.2, 0.8, 0.9},
                                 {true, true, false, false}), 0.0);
}

TEST(Auc, AllTiedScoresHalf) {
  EXPECT_DOUBLE_EQ(*AreaUnderRoc({0.5, 0.5, 0.5, 0.5},
                                 {true, false, true, false}), 0.5);
}

TEST(Auc, MidrankTieHandling) {
  // Positive tied with one negative at 0.5, one negative below.
  // Ranks ascending: 0.1 -> 1, the two 0.5s -> 2.5 each.
  // AUC = (2.5 - 1) / (1 * 2) = 0.75.
  EXPECT_DOUBLE_EQ(*AreaUnderRoc({0.5, 0.5, 0.1}, {true, false, false}), 0.75);
}

TEST(Auc, InterleavedKnownValue) {
  // scores desc: 0.9(+), 0.7(-), 0.6(+), 0.3(-): concordant pairs 3 of 4.
  EXPECT_DOUBLE_EQ(*AreaUnderRoc({0.9, 0.7, 0.6, 0.3},
                                 {true, false, true, false}), 0.75);
}

TEST(Auc, Validation) {
  EXPECT_TRUE(AreaUnderRoc({0.1}, {true, false}).status().IsInvalidArgument());
  EXPECT_TRUE(AreaUnderRoc({0.1, 0.2}, {true, true}).status().IsInvalidArgument());
  EXPECT_TRUE(AreaUnderRoc({0.1, 0.2}, {false, false}).status().IsInvalidArgument());
}

// --- Ranks ---

TEST(DescendingRanks, Basic) {
  EXPECT_EQ(DescendingRanks({0.3, 0.9, 0.5}), (std::vector<double>{3, 1, 2}));
}

TEST(DescendingRanks, MidranksForTies) {
  EXPECT_EQ(DescendingRanks({0.5, 0.5, 0.1}), (std::vector<double>{1.5, 1.5, 3}));
  EXPECT_EQ(DescendingRanks({1, 1, 1}), (std::vector<double>{2, 2, 2}));
}

TEST(AverageRankDifference, PerfectAgreementIsZero) {
  std::vector<double> truth = {5, 4, 3, 2, 1};
  EXPECT_DOUBLE_EQ(*AverageRankDifference(truth, truth, 3), 0.0);
}

TEST(AverageRankDifference, KnownDisplacement) {
  // truth ranks: a=1, b=2, c=3. measure ranks: a=3, b=2, c=1.
  std::vector<double> truth = {3, 2, 1};
  std::vector<double> measure = {1, 2, 3};
  // top_n = 1 -> only a, displaced by 2.
  EXPECT_DOUBLE_EQ(*AverageRankDifference(truth, measure, 1), 2.0);
  // top_n = 3 -> (2 + 0 + 2) / 3.
  EXPECT_NEAR(*AverageRankDifference(truth, measure, 3), 4.0 / 3.0, 1e-12);
}

TEST(AverageRankDifference, Validation) {
  EXPECT_TRUE(AverageRankDifference({1.0}, {1.0, 2.0}, 1).status()
                  .IsInvalidArgument());
  EXPECT_TRUE(AverageRankDifference({}, {}, 1).status().IsInvalidArgument());
  EXPECT_TRUE(AverageRankDifference({1.0}, {1.0}, 0).status().IsInvalidArgument());
}

}  // namespace
}  // namespace hetesim
