#ifndef HETESIM_CORE_ADVISOR_H_
#define HETESIM_CORE_ADVISOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/materialize.h"
#include "hin/graph.h"
#include "hin/metapath.h"
#include "matrix/cost_model.h"

namespace hetesim {

/// One entry of an expected query workload.
struct WorkloadEntry {
  MetaPath path;
  /// Expected relative query frequency (any positive scale).
  double frequency = 1.0;
};

/// Options for the materialization advisor.
struct AdvisorOptions {
  /// Upper bound on the total bytes of materialized matrices. 0 means
  /// unlimited (materialize every half).
  size_t memory_budget_bytes = 0;
};

/// One half the advisor chose to materialize.
struct MaterializationChoice {
  /// Canonical cache key (see PathMatrixCache::LeftKey/RightKey).
  std::string key;
  /// Approximate resident size of the matrix.
  size_t bytes = 0;
  /// Workload benefit: total frequency of queries served by this half
  /// times its (deterministic) recomputation cost in multiply-add flops.
  double benefit = 0.0;
};

/// The advisor's output: which halves to precompute, within budget.
struct MaterializationPlan {
  std::vector<MaterializationChoice> choices;
  size_t total_bytes = 0;
  double total_benefit = 0.0;
  /// Number of distinct candidate halves considered (chosen or not).
  size_t candidates = 0;
};

/// \brief Decides which reachable-probability halves to materialize for a
/// query workload under a memory budget — the operational form of
/// Section 4.6's "for frequently-used relevance paths, the relatedness
/// matrix can be calculated off-line" plus "the concatenation of partially
/// materialized reachable probability matrices".
///
/// Every workload path contributes its two decomposition halves; halves
/// shared between paths (canonical keys, see `PathMatrixCache`) pool their
/// frequencies. Each candidate is costed by its exact Gustavson
/// multiply-add count (deterministic — no wall-clock noise) and sized by
/// its CSR footprint; candidates are then chosen greedily by
/// benefit-per-byte until the budget is exhausted. Greedy is within a
/// factor 2 of the optimal knapsack here and exact when the budget fits
/// everything.
[[nodiscard]] Result<MaterializationPlan> AdviseMaterialization(const HinGraph& graph,
                                                  const std::vector<WorkloadEntry>& workload,
                                                  const AdvisorOptions& options = {});

// The advisor's exact flop counters (`ProductFlops`, `ChainProductFlops`)
// live in the shared cost-model module, `matrix/cost_model.h`, which also
// prices the chain-association planner — one source of truth for multiply
// costs. They remain visible here through the include above.

}  // namespace hetesim

#endif  // HETESIM_CORE_ADVISOR_H_
