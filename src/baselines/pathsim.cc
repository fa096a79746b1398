#include "baselines/pathsim.h"

#include "common/check.h"
#include "matrix/ops.h"
#include "matrix/sparse.h"

namespace hetesim {

namespace {

Status ValidateSymmetric(const MetaPath& path) {
  if (!path.IsSymmetric()) {
    return Status::InvalidArgument(
        "PathSim requires a symmetric meta-path; '" + path.ToString() +
        "' is not (use HeteSim for arbitrary paths)");
  }
  return Status::OK();
}

/// For a symmetric path the count matrix is M H H'-shaped with H the first
/// half, so only the half product is needed; diagonal entries are row-norm
/// squares of H.
Result<SparseMatrix> HalfCountMatrix(const HinGraph& graph, const MetaPath& path) {
  std::vector<SparseMatrix> chain;
  const int half = path.length() / 2;
  chain.reserve(static_cast<size_t>(half));
  for (int i = 0; i < half; ++i) {
    chain.push_back(graph.StepAdjacency(path.StepAt(i)));
  }
  return MultiplyChain(chain);
}

}  // namespace

Result<DenseMatrix> PathSimMatrix(const HinGraph& graph, const MetaPath& path) {
  HETESIM_RETURN_NOT_OK(ValidateSymmetric(path));
  HETESIM_ASSIGN_OR_RETURN(const SparseMatrix half, HalfCountMatrix(graph, path));
  DenseMatrix counts = half.Multiply(half.Transpose()).ToDense();
  DenseMatrix out(counts.rows(), counts.cols());
  for (Index a = 0; a < counts.rows(); ++a) {
    for (Index b = 0; b < counts.cols(); ++b) {
      const double denominator = counts(a, a) + counts(b, b);
      if (denominator != 0.0) out(a, b) = 2.0 * counts(a, b) / denominator;
    }
  }
  return out;
}

Result<std::vector<double>> PathSimSingleSource(const HinGraph& graph,
                                                const MetaPath& path, Index source) {
  HETESIM_RETURN_NOT_OK(ValidateSymmetric(path));
  if (source < 0 || source >= graph.NumNodes(path.SourceType())) {
    return Status::OutOfRange("source id out of range");
  }
  HETESIM_ASSIGN_OR_RETURN(const SparseMatrix half, HalfCountMatrix(graph, path));
  std::vector<double> numerators =
      half.MultiplyVector(half.RowDense(source));  // counts(source, :)
  const double self_source = Dot(half.RowDense(source), half.RowDense(source));
  std::vector<double> out(numerators.size(), 0.0);
  for (size_t b = 0; b < out.size(); ++b) {
    const double nb = half.RowNorm(static_cast<Index>(b));
    const double denominator = self_source + nb * nb;
    if (denominator != 0.0) out[b] = 2.0 * numerators[b] / denominator;
  }
  return out;
}

}  // namespace hetesim
