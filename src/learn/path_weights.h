#ifndef HETESIM_LEARN_PATH_WEIGHTS_H_
#define HETESIM_LEARN_PATH_WEIGHTS_H_

#include <vector>

#include "common/result.h"
#include "core/hetesim.h"
#include "hin/graph.h"
#include "hin/metapath.h"

namespace hetesim {

/// One supervised example for path-weight learning: how related the pair
/// (source, target) should be, in [0, 1].
struct LabeledPair {
  Index source = 0;
  Index target = 0;
  double relatedness = 0.0;
};

/// Options for `LearnPathWeights`.
struct PathWeightOptions {
  /// Projected-gradient iterations.
  int max_iterations = 500;
  /// Gradient step size.
  double learning_rate = 0.5;
  /// L2 regularization on the weights.
  double l2 = 1e-4;
  /// Early stop when the loss improvement falls below this.
  double tolerance = 1e-10;
  /// Options forwarded to the per-path HeteSim evaluations.
  HeteSimOptions hetesim;
};

/// The learned model: a convex combination of relevance paths.
struct PathWeightModel {
  /// Candidate paths, as given to the learner.
  std::vector<MetaPath> paths;
  /// Non-negative weights summing to 1, aligned with `paths`.
  std::vector<double> weights;
  /// Mean squared training error of the final model.
  double training_loss = 0.0;
  /// Iterations actually used.
  int iterations = 0;
};

/// \brief Learns a weighting over candidate relevance paths from labeled
/// object pairs — the Section 5.1 suggestion "supervised learning can be
/// used to automatically select relevance paths ... and the associated
/// weights" made concrete.
///
/// The model scores a pair as `sum_k w_k * HeteSim(s, t | P_k)` and the
/// learner minimizes mean squared error against `labels.relatedness` by
/// projected gradient descent on the probability simplex (weights stay
/// non-negative and sum to 1, so the combined score stays in [0, 1] when
/// normalized HeteSim is used).
///
/// Requirements: at least one path and one labeled pair; every path must
/// run between the same source and target types; pair ids must be in
/// range. Deterministic (no randomness in the optimization).
[[nodiscard]] Result<PathWeightModel> LearnPathWeights(const HinGraph& graph,
                                         const std::vector<MetaPath>& paths,
                                         const std::vector<LabeledPair>& labels,
                                         const PathWeightOptions& options = {});

/// Combined relevance of `source` to every target object under a model.
[[nodiscard]] Result<std::vector<double>> CombinedSingleSource(const HinGraph& graph,
                                                 const PathWeightModel& model,
                                                 Index source,
                                                 const HeteSimOptions& options = {});

}  // namespace hetesim

#endif  // HETESIM_LEARN_PATH_WEIGHTS_H_
