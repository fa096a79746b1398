#include "core/advisor.h"

#include <algorithm>
#include <map>

#include "core/path_matrix.h"
#include "matrix/ops.h"

namespace hetesim {

namespace {

/// Approximate CSR footprint: one Index + one double per entry plus the
/// row-pointer array.
size_t MatrixBytes(const SparseMatrix& m) {
  return static_cast<size_t>(m.NumNonZeros()) * (sizeof(Index) + sizeof(double)) +
         (static_cast<size_t>(m.rows()) + 1) * sizeof(Index);
}

struct Candidate {
  size_t bytes = 0;
  double flops = 0.0;
  double frequency = 0.0;
};

}  // namespace

Result<MaterializationPlan> AdviseMaterialization(
    const HinGraph& graph, const std::vector<WorkloadEntry>& workload,
    const AdvisorOptions& options) {
  if (workload.empty()) {
    return Status::InvalidArgument("workload must be non-empty");
  }
  for (const WorkloadEntry& entry : workload) {
    if (entry.frequency <= 0.0) {
      return Status::InvalidArgument("workload frequencies must be positive");
    }
  }

  // Gather candidates: both halves of every workload path, pooled by
  // canonical key. std::map keeps the plan deterministic.
  std::map<std::string, Candidate> candidates;
  for (const WorkloadEntry& entry : workload) {
    PathDecomposition decomposition = DecomposePath(graph, entry.path);
    struct Half {
      std::string key;
      const std::vector<SparseMatrix>* chain;
    };
    const Half halves[] = {
        {PathMatrixCache::LeftKey(entry.path), &decomposition.left_transitions},
        {PathMatrixCache::RightKey(entry.path), &decomposition.right_transitions},
    };
    for (const Half& half : halves) {
      Candidate& candidate = candidates[half.key];
      candidate.frequency += entry.frequency;
      if (candidate.bytes == 0) {  // first sighting: measure cost and size
        candidate.flops = ChainProductFlops(*half.chain);
        HETESIM_ASSIGN_OR_RETURN(SparseMatrix product, MultiplyChain(*half.chain));
        candidate.bytes = MatrixBytes(product);
      }
    }
  }

  // Greedy knapsack by benefit per byte.
  MaterializationPlan plan;
  plan.candidates = candidates.size();
  std::vector<MaterializationChoice> ranked;
  ranked.reserve(candidates.size());
  for (const auto& [key, candidate] : candidates) {
    ranked.push_back({key, candidate.bytes, candidate.frequency * candidate.flops});
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const MaterializationChoice& a, const MaterializationChoice& b) {
              const double density_a =
                  a.benefit / static_cast<double>(std::max<size_t>(a.bytes, 1));
              const double density_b =
                  b.benefit / static_cast<double>(std::max<size_t>(b.bytes, 1));
              if (density_a != density_b) return density_a > density_b;
              return a.key < b.key;
            });
  for (const MaterializationChoice& choice : ranked) {
    if (options.memory_budget_bytes != 0 &&
        plan.total_bytes + choice.bytes > options.memory_budget_bytes) {
      continue;  // try smaller candidates further down the ranking
    }
    plan.choices.push_back(choice);
    plan.total_bytes += choice.bytes;
    plan.total_benefit += choice.benefit;
  }
  return plan;
}

}  // namespace hetesim
