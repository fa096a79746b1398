#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

namespace hetesim {
namespace {

TEST(Rng, DeterministicGivenSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a.Next() == b.Next()) ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(Rng, UniformRespectsBound) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(Rng, UniformCoversSupport) {
  Rng rng(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.Uniform(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIsRoughlyUniform) {
  Rng rng(42);
  const int bins = 10;
  const int draws = 100000;
  std::vector<int> histogram(bins, 0);
  for (int i = 0; i < draws; ++i) ++histogram[rng.Uniform(bins)];
  for (int count : histogram) {
    EXPECT_NEAR(count, draws / bins, draws / bins * 0.1);
  }
}

TEST(Rng, UniformIntInclusiveRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
  }
  EXPECT_EQ(rng.UniformInt(5, 5), 5);
}

TEST(Rng, UniformDoubleInUnitInterval) {
  Rng rng(11);
  double sum = 0.0;
  for (int i = 0; i < 100000; ++i) {
    double v = rng.UniformDouble();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum / 100000.0, 0.5, 0.01);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(13);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerate) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(17);
  const int draws = 200000;
  double sum = 0.0;
  double sum_squares = 0.0;
  for (int i = 0; i < draws; ++i) {
    double v = rng.Normal();
    sum += v;
    sum_squares += v * v;
  }
  EXPECT_NEAR(sum / draws, 0.0, 0.02);
  EXPECT_NEAR(sum_squares / draws, 1.0, 0.03);
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(23);
  std::vector<int> values(50);
  std::iota(values.begin(), values.end(), 0);
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  EXPECT_NE(shuffled, values);  // astronomically unlikely to be identity
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, values);
}

TEST(Zipf, WithinSupport) {
  Rng rng(29);
  for (int i = 0; i < 1000; ++i) {
    uint64_t v = rng.Zipf(10, 1.0);
    EXPECT_GE(v, 1u);
    EXPECT_LE(v, 10u);
  }
}

TEST(ZipfSampler, HeadHeavierThanTail) {
  Rng rng(31);
  ZipfSampler sampler(100, 1.2);
  int head = 0;
  int tail = 0;
  for (int i = 0; i < 50000; ++i) {
    uint64_t v = sampler.Sample(rng);
    if (v == 1) ++head;
    if (v > 50) ++tail;
  }
  EXPECT_GT(head, tail);
  EXPECT_GT(head, 5000);  // rank 1 carries the largest single mass
}

TEST(ZipfSampler, FrequencyMatchesLaw) {
  Rng rng(37);
  ZipfSampler sampler(4, 1.0);
  // Normalizer for n=4, s=1: 1 + 1/2 + 1/3 + 1/4 = 25/12.
  std::vector<int> histogram(5, 0);
  const int draws = 200000;
  for (int i = 0; i < draws; ++i) ++histogram[sampler.Sample(rng)];
  const double z = 25.0 / 12.0;
  for (int k = 1; k <= 4; ++k) {
    EXPECT_NEAR(histogram[k] / static_cast<double>(draws), (1.0 / k) / z, 0.01)
        << "rank " << k;
  }
}

}  // namespace
}  // namespace hetesim
