#include "core/advisor.h"

#include <set>

#include <gtest/gtest.h>

#include "core/path_matrix.h"
#include "matrix/ops.h"
#include "test_util.h"

namespace hetesim {
namespace {

class AdvisorTest : public ::testing::Test {
 protected:
  AdvisorTest() : graph_(testing::BuildFig4Graph()) {}
  MetaPath Path(const char* spec) const {
    return *MetaPath::Parse(graph_.schema(), spec);
  }
  HinGraph graph_;
};

TEST_F(AdvisorTest, ChainProductFlopsCountsMultiplyAdds) {
  // [1x2 with 2 nnz] * [2x2 with rows of 1 and 2 nnz]: row 0 of A touches
  // both B rows -> 1 + 2 = 3 multiply-adds.
  SparseMatrix a = SparseMatrix::FromTriplets(1, 2, {{0, 0, 1.0}, {0, 1, 1.0}});
  SparseMatrix b = SparseMatrix::FromTriplets(
      2, 2, {{0, 0, 1.0}, {1, 0, 1.0}, {1, 1, 1.0}});
  EXPECT_DOUBLE_EQ(ChainProductFlops({a, b}), 3.0);
  EXPECT_DOUBLE_EQ(ChainProductFlops({a}), 0.0);  // nothing to multiply
  EXPECT_DOUBLE_EQ(ChainProductFlops({}), 0.0);
}

TEST_F(AdvisorTest, UnlimitedBudgetTakesEveryHalf) {
  std::vector<WorkloadEntry> workload = {{Path("APCPA"), 1.0}, {Path("APC"), 2.0}};
  MaterializationPlan plan = *AdviseMaterialization(graph_, workload);
  EXPECT_EQ(plan.choices.size(), plan.candidates);
  EXPECT_GT(plan.total_bytes, 0u);
  EXPECT_GT(plan.total_benefit, 0.0);
}

TEST_F(AdvisorTest, SharedHalvesPoolFrequencies) {
  // APCPA and APCPC share the left half (A-P-C product); the candidate set
  // must contain it once with summed frequency driving its benefit.
  std::vector<WorkloadEntry> workload = {{Path("APCPA"), 1.0}, {Path("APCPC"), 1.0}};
  MaterializationPlan plan = *AdviseMaterialization(graph_, workload);
  std::set<std::string> keys;
  for (const auto& choice : plan.choices) keys.insert(choice.key);
  // APCPA is symmetric (left == right half == A-P-C product), and APCPC's
  // left half is that same product; only APCPC's right half differs:
  // 2 distinct candidates in total.
  EXPECT_EQ(plan.candidates, 2u);
  EXPECT_EQ(keys.count(PathMatrixCache::LeftKey(Path("APCPA"))), 1u);
  EXPECT_EQ(PathMatrixCache::LeftKey(Path("APCPA")),
            PathMatrixCache::LeftKey(Path("APCPC")));
}

TEST_F(AdvisorTest, BudgetLimitsSelectionToBestDensity) {
  std::vector<WorkloadEntry> workload = {{Path("APCPA"), 5.0}, {Path("AP"), 1.0}};
  MaterializationPlan unlimited = *AdviseMaterialization(graph_, workload);
  ASSERT_GE(unlimited.choices.size(), 2u);
  // Budget that only fits the single best-density choice.
  AdvisorOptions tight;
  tight.memory_budget_bytes = unlimited.choices[0].bytes;
  MaterializationPlan plan = *AdviseMaterialization(graph_, workload, tight);
  ASSERT_FALSE(plan.choices.empty());
  EXPECT_LE(plan.total_bytes, tight.memory_budget_bytes);
  EXPECT_EQ(plan.choices[0].key, unlimited.choices[0].key);
}

TEST_F(AdvisorTest, TinyBudgetYieldsEmptyPlan) {
  std::vector<WorkloadEntry> workload = {{Path("APCPA"), 1.0}};
  AdvisorOptions options;
  options.memory_budget_bytes = 1;  // nothing fits
  MaterializationPlan plan = *AdviseMaterialization(graph_, workload, options);
  EXPECT_TRUE(plan.choices.empty());
  EXPECT_EQ(plan.total_bytes, 0u);
}

TEST_F(AdvisorTest, DeterministicPlans) {
  std::vector<WorkloadEntry> workload = {{Path("APCPA"), 1.0}, {Path("APC"), 3.0},
                                         {Path("APA"), 2.0}};
  MaterializationPlan a = *AdviseMaterialization(graph_, workload);
  MaterializationPlan b = *AdviseMaterialization(graph_, workload);
  ASSERT_EQ(a.choices.size(), b.choices.size());
  for (size_t i = 0; i < a.choices.size(); ++i) {
    EXPECT_EQ(a.choices[i].key, b.choices[i].key);
    EXPECT_EQ(a.choices[i].bytes, b.choices[i].bytes);
    EXPECT_EQ(a.choices[i].benefit, b.choices[i].benefit);
  }
}

TEST_F(AdvisorTest, WorkloadValidation) {
  EXPECT_TRUE(AdviseMaterialization(graph_, {}).status().IsInvalidArgument());
  std::vector<WorkloadEntry> bad = {{Path("APC"), 0.0}};
  EXPECT_TRUE(AdviseMaterialization(graph_, bad).status().IsInvalidArgument());
}

TEST_F(AdvisorTest, BenefitScalesWithFrequency) {
  std::vector<WorkloadEntry> light = {{Path("APCPA"), 1.0}};
  std::vector<WorkloadEntry> heavy = {{Path("APCPA"), 10.0}};
  MaterializationPlan light_plan = *AdviseMaterialization(graph_, light);
  MaterializationPlan heavy_plan = *AdviseMaterialization(graph_, heavy);
  EXPECT_NEAR(heavy_plan.total_benefit, 10.0 * light_plan.total_benefit, 1e-9);
}

}  // namespace
}  // namespace hetesim
