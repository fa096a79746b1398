#include "core/path_matrix.h"

#include <cmath>

#include "common/check.h"
#include "matrix/ops.h"

namespace hetesim {

SparseMatrix SanitizeTransition(SparseMatrix m) {
  bool all_finite = true;
  for (double v : m.values()) {
    if (!std::isfinite(v)) {
      all_finite = false;
      break;
    }
  }
  if (all_finite) return m;
  // Rebuild without the poisoned rows: one NaN/Inf weight invalidates the
  // whole row's probability mass, so the row becomes all-zero (its object
  // contributes 0 relevance downstream, matching the unreachable case).
  std::vector<Triplet> triplets;
  triplets.reserve(static_cast<size_t>(m.NumNonZeros()));
  for (Index r = 0; r < m.rows(); ++r) {
    auto values = m.RowValues(r);
    bool row_finite = true;
    for (double v : values) {
      if (!std::isfinite(v)) {
        row_finite = false;
        break;
      }
    }
    if (!row_finite) continue;
    auto indices = m.RowIndices(r);
    for (size_t k = 0; k < indices.size(); ++k) {
      triplets.push_back({r, indices[k], values[k]});
    }
  }
  return SparseMatrix::FromTriplets(m.rows(), m.cols(), std::move(triplets));
}

std::vector<SparseMatrix> TransitionChain(const HinGraph& graph, const MetaPath& path) {
  std::vector<SparseMatrix> chain;
  chain.reserve(static_cast<size_t>(path.length()));
  for (int i = 0; i < path.length(); ++i) {
    chain.push_back(SanitizeTransition(graph.StepTransition(path.StepAt(i))));
  }
  return chain;
}

Result<SparseMatrix> ReachProbability(const HinGraph& graph, const MetaPath& path,
                                      int num_threads, const QueryContext& ctx) {
  return MultiplyChain(TransitionChain(graph, path), num_threads, ctx);
}

std::vector<double> ReachDistribution(const HinGraph& graph, const MetaPath& path,
                                      Index source) {
  HETESIM_CHECK(source >= 0 && source < graph.NumNodes(path.SourceType()));
  std::vector<double> x(static_cast<size_t>(graph.NumNodes(path.SourceType())), 0.0);
  x[static_cast<size_t>(source)] = 1.0;
  return VectorThroughChain(std::move(x), TransitionChain(graph, path));
}

AtomicDecomposition DecomposeAtomicRelation(const HinGraph& graph,
                                            const RelationStep& step) {
  const SparseMatrix& w = graph.StepAdjacency(step);
  const Index num_instances = w.NumNonZeros();
  std::vector<Triplet> out_triplets;
  std::vector<Triplet> in_triplets;
  out_triplets.reserve(static_cast<size_t>(num_instances));
  in_triplets.reserve(static_cast<size_t>(num_instances));
  Index edge_id = 0;
  for (Index a = 0; a < w.rows(); ++a) {
    auto indices = w.RowIndices(a);
    auto values = w.RowValues(a);
    for (size_t k = 0; k < indices.size(); ++k) {
      // Skip weights whose square root is not a finite probability mass
      // (NaN/Inf, or negative — sqrt would be NaN): the relation instance
      // simply does not exist, so the pair contributes 0 relevance instead
      // of poisoning whole rows of the half matrices.
      if (!std::isfinite(values[k]) || values[k] < 0.0) {
        ++edge_id;
        continue;
      }
      // w(a,e) = w(e,b) = sqrt(w(a,b)) so that W_out * W_in == W exactly.
      const double half_weight = std::sqrt(values[k]);
      out_triplets.push_back({a, edge_id, half_weight});
      in_triplets.push_back({edge_id, indices[k], half_weight});
      ++edge_id;
    }
  }
  AtomicDecomposition result;
  result.num_instances = num_instances;
  result.out = SparseMatrix::FromTriplets(w.rows(), num_instances,
                                          std::move(out_triplets));
  result.in = SparseMatrix::FromTriplets(num_instances, w.cols(),
                                         std::move(in_triplets));
  return result;
}

namespace {

/// Transitions of one half of `path` (Definition 5): the left half walks
/// steps [0, l/2) forward; the right half (PR^-1) walks the second half
/// backwards, inverted. For an odd path, `atomic` is its decomposed middle
/// relation and each half ends entering the edge-object type E: the left
/// against R_O (W_AE row-normalized), the right against R_I (W_EB'
/// row-normalized).
std::vector<SparseMatrix> HalfTransitions(const HinGraph& graph,
                                          const MetaPath& path, bool left_side,
                                          const AtomicDecomposition* atomic) {
  const int l = path.length();
  std::vector<SparseMatrix> chain;
  if (left_side) {
    for (int i = 0; i < l / 2; ++i) {
      chain.push_back(SanitizeTransition(graph.StepTransition(path.StepAt(i))));
    }
  } else {
    for (int i = l - 1; i >= l - l / 2; --i) {
      chain.push_back(
          SanitizeTransition(graph.StepTransition(path.StepAt(i).Inverse())));
    }
  }
  if (atomic != nullptr) {
    chain.push_back(left_side ? atomic->out.RowNormalized()
                              : atomic->in.Transpose().RowNormalized());
  }
  return chain;
}

}  // namespace

std::vector<SparseMatrix> DecomposeHalf(const HinGraph& graph,
                                        const MetaPath& path, bool left_side) {
  if (path.length() % 2 == 0) {
    return HalfTransitions(graph, path, left_side, nullptr);
  }
  const AtomicDecomposition atomic =
      DecomposeAtomicRelation(graph, path.StepAt(path.length() / 2));
  return HalfTransitions(graph, path, left_side, &atomic);
}

PathDecomposition DecomposePath(const HinGraph& graph, const MetaPath& path) {
  PathDecomposition result;
  const int l = path.length();
  if (l % 2 == 0) {
    // Even length: split at the middle type M = TypeAt(l/2).
    result.left_transitions =
        HalfTransitions(graph, path, /*left_side=*/true, nullptr);
    result.right_transitions =
        HalfTransitions(graph, path, /*left_side=*/false, nullptr);
    result.middle_dimension = graph.NumNodes(path.TypeAt(l / 2));
    return result;
  }
  // Odd length: decompose the middle atomic relation (step index l/2)
  // through an edge-object type E, then split as in the even case with
  // M = E (Definitions 5 and 6).
  const AtomicDecomposition atomic =
      DecomposeAtomicRelation(graph, path.StepAt(l / 2));
  result.left_transitions =
      HalfTransitions(graph, path, /*left_side=*/true, &atomic);
  result.right_transitions =
      HalfTransitions(graph, path, /*left_side=*/false, &atomic);
  result.middle_dimension = atomic.num_instances;
  result.edge_object_inserted = true;
  return result;
}

Result<SparseMatrix> LeftReachMatrix(const PathDecomposition& decomposition,
                                     int num_threads, const QueryContext& ctx) {
  return MultiplyChain(decomposition.left_transitions, num_threads, ctx);
}

Result<SparseMatrix> RightReachMatrix(const PathDecomposition& decomposition,
                                      int num_threads, const QueryContext& ctx) {
  return MultiplyChain(decomposition.right_transitions, num_threads, ctx);
}

SparseMatrix LeftReachMatrix(const PathDecomposition& decomposition) {
  return LeftReachMatrix(decomposition, 1).value();
}

SparseMatrix RightReachMatrix(const PathDecomposition& decomposition) {
  return RightReachMatrix(decomposition, 1).value();
}

}  // namespace hetesim
