#include "learn/path_weights.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <numeric>

#include "core/materialize.h"

namespace hetesim {

namespace {

/// Euclidean projection of `v` onto the probability simplex
/// {w : w_i >= 0, sum w_i = 1} (Duchi et al., 2008).
void ProjectOntoSimplex(std::vector<double>& v) {
  std::vector<double> sorted = v;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  double running = 0.0;
  double theta = 0.0;
  int support = 0;
  for (size_t i = 0; i < sorted.size(); ++i) {
    running += sorted[i];
    const double candidate = (running - 1.0) / static_cast<double>(i + 1);
    if (sorted[i] - candidate > 0.0) {
      theta = candidate;
      support = static_cast<int>(i + 1);
    }
  }
  if (support == 0) {
    // All mass projected away (cannot happen for finite input, but keep a
    // safe uniform fallback).
    const double uniform = 1.0 / static_cast<double>(v.size());
    for (double& x : v) x = uniform;
    return;
  }
  for (double& x : v) x = std::max(0.0, x - theta);
}

Status ValidateInputs(const HinGraph& graph, const std::vector<MetaPath>& paths,
                      const std::vector<LabeledPair>& labels) {
  if (paths.empty()) {
    return Status::InvalidArgument("need at least one candidate path");
  }
  if (labels.empty()) {
    return Status::InvalidArgument("need at least one labeled pair");
  }
  const TypeId source_type = paths[0].SourceType();
  const TypeId target_type = paths[0].TargetType();
  for (const MetaPath& path : paths) {
    if (path.SourceType() != source_type || path.TargetType() != target_type) {
      return Status::InvalidArgument(
          "all candidate paths must share source and target types");
    }
  }
  const Index num_sources = graph.NumNodes(source_type);
  const Index num_targets = graph.NumNodes(target_type);
  for (const LabeledPair& pair : labels) {
    if (pair.source < 0 || pair.source >= num_sources || pair.target < 0 ||
        pair.target >= num_targets) {
      return Status::OutOfRange("labeled pair references an unknown object");
    }
    if (pair.relatedness < 0.0 || pair.relatedness > 1.0) {
      return Status::InvalidArgument("pair relatedness must lie in [0, 1]");
    }
  }
  return Status::OK();
}

}  // namespace

Result<PathWeightModel> LearnPathWeights(const HinGraph& graph,
                                         const std::vector<MetaPath>& paths,
                                         const std::vector<LabeledPair>& labels,
                                         const PathWeightOptions& options) {
  HETESIM_RETURN_NOT_OK(ValidateInputs(graph, paths, labels));
  if (options.max_iterations < 1 || options.learning_rate <= 0.0 ||
      options.l2 < 0.0) {
    return Status::InvalidArgument("invalid optimization options");
  }

  // Feature matrix: features[i][k] = HeteSim(pair i | path k). A shared
  // cache makes the per-pair evaluations cheap row dots.
  const size_t num_pairs = labels.size();
  const size_t num_paths = paths.size();
  auto cache = std::make_shared<PathMatrixCache>();
  HeteSimEngine engine(graph, options.hetesim, cache);
  std::vector<std::vector<double>> features(num_pairs,
                                            std::vector<double>(num_paths, 0.0));
  for (size_t i = 0; i < num_pairs; ++i) {
    for (size_t k = 0; k < num_paths; ++k) {
      HETESIM_ASSIGN_OR_RETURN(
          features[i][k],
          engine.ComputePair(paths[k], labels[i].source, labels[i].target));
    }
  }

  // Projected gradient descent on mean squared error over the simplex.
  PathWeightModel model;
  model.paths = paths;
  model.weights.assign(num_paths, 1.0 / static_cast<double>(num_paths));
  auto loss_of = [&](const std::vector<double>& w) {
    double loss = 0.0;
    for (size_t i = 0; i < num_pairs; ++i) {
      double prediction = 0.0;
      for (size_t k = 0; k < num_paths; ++k) prediction += w[k] * features[i][k];
      const double residual = prediction - labels[i].relatedness;
      loss += residual * residual;
    }
    loss /= static_cast<double>(num_pairs);
    for (double wk : w) loss += options.l2 * wk * wk;
    return loss;
  };

  double previous_loss = loss_of(model.weights);
  for (int iteration = 0; iteration < options.max_iterations; ++iteration) {
    model.iterations = iteration + 1;
    std::vector<double> gradient(num_paths, 0.0);
    for (size_t i = 0; i < num_pairs; ++i) {
      double prediction = 0.0;
      for (size_t k = 0; k < num_paths; ++k) {
        prediction += model.weights[k] * features[i][k];
      }
      const double residual = prediction - labels[i].relatedness;
      for (size_t k = 0; k < num_paths; ++k) {
        gradient[k] += 2.0 * residual * features[i][k];
      }
    }
    for (size_t k = 0; k < num_paths; ++k) {
      gradient[k] /= static_cast<double>(num_pairs);
      gradient[k] += 2.0 * options.l2 * model.weights[k];
      model.weights[k] -= options.learning_rate * gradient[k];
    }
    ProjectOntoSimplex(model.weights);
    const double loss = loss_of(model.weights);
    if (previous_loss - loss < options.tolerance) {
      previous_loss = std::min(previous_loss, loss);
      break;
    }
    previous_loss = loss;
  }
  model.training_loss = previous_loss;
  return model;
}

Result<std::vector<double>> CombinedSingleSource(const HinGraph& graph,
                                                 const PathWeightModel& model,
                                                 Index source,
                                                 const HeteSimOptions& options) {
  if (model.paths.size() != model.weights.size() || model.paths.empty()) {
    return Status::InvalidArgument("malformed path-weight model");
  }
  HeteSimEngine engine(graph, options);
  std::vector<double> combined;
  for (size_t k = 0; k < model.paths.size(); ++k) {
    HETESIM_ASSIGN_OR_RETURN(std::vector<double> scores,
                             engine.ComputeSingleSource(model.paths[k], source));
    if (combined.empty()) combined.assign(scores.size(), 0.0);
    if (scores.size() != combined.size()) {
      return Status::InvalidArgument(
          "candidate paths disagree on the target type");
    }
    for (size_t t = 0; t < scores.size(); ++t) {
      combined[t] += model.weights[k] * scores[t];
    }
  }
  return combined;
}

}  // namespace hetesim
