#include "baselines/pcrw.h"

#include "core/path_matrix.h"

namespace hetesim {

DenseMatrix PcrwMatrix(const HinGraph& graph, const MetaPath& path) {
  return ReachProbability(graph, path).value().ToDense();
}

Result<std::vector<double>> PcrwSingleSource(const HinGraph& graph,
                                             const MetaPath& path, Index source) {
  if (source < 0 || source >= graph.NumNodes(path.SourceType())) {
    return Status::OutOfRange("source id out of range");
  }
  return ReachDistribution(graph, path, source);
}

Result<double> PcrwPair(const HinGraph& graph, const MetaPath& path, Index source,
                        Index target) {
  if (target < 0 || target >= graph.NumNodes(path.TargetType())) {
    return Status::OutOfRange("target id out of range");
  }
  HETESIM_ASSIGN_OR_RETURN(std::vector<double> distribution,
                           PcrwSingleSource(graph, path, source));
  return distribution[static_cast<size_t>(target)];
}

}  // namespace hetesim
