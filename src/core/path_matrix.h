#ifndef HETESIM_CORE_PATH_MATRIX_H_
#define HETESIM_CORE_PATH_MATRIX_H_

#include <vector>

#include "common/context.h"
#include "common/result.h"
#include "hin/graph.h"
#include "hin/metapath.h"
#include "matrix/sparse.h"

namespace hetesim {

/// Zeroes every row of `m` that contains a non-finite entry (NaN or Inf),
/// returning the sanitized copy. Transition rows poisoned by a bad input
/// weight thus become all-zero, which downstream HeteSim semantics already
/// handle: a walker at such an object reaches nothing, and the cosine
/// combination of an all-zero distribution is 0 relevance (the paper's
/// convention for unreachable pairs). When every entry is finite — the
/// overwhelmingly common case — the matrix is returned unchanged without
/// copying row data.
SparseMatrix SanitizeTransition(SparseMatrix m);

/// Transition probability matrices `U` (Definition 8) for every step of
/// `path`, in order. `chain[i]` is `|TypeAt(i)| x |TypeAt(i+1)|` and
/// row-stochastic (up to all-zero rows for nodes with no out-neighbors).
std::vector<SparseMatrix> TransitionChain(const HinGraph& graph, const MetaPath& path);

/// Reachable probability matrix `PM_P = U_1 U_2 ... U_l` (Definition 9).
/// `PM(i, j)` is the probability that a random walker starting at object `i`
/// of the source type reaches object `j` of the target type walking along
/// `path`. This is also exactly the PCRW proximity matrix. The chain
/// product runs under `ctx` (see `MultiplyChain`); `num_threads` follows
/// the library convention (1 sequential, 0 = all hardware threads).
[[nodiscard]] Result<SparseMatrix> ReachProbability(
    const HinGraph& graph, const MetaPath& path, int num_threads = 1,
    const QueryContext& ctx = QueryContext::Background());

/// Single-source row of `ReachProbability`: the distribution over the target
/// type reached from `source`. O(edges touched), no matrix products.
std::vector<double> ReachDistribution(const HinGraph& graph, const MetaPath& path,
                                      Index source);

/// \brief Decomposition of an atomic relation `R = R_O ∘ R_I` through an
/// inserted edge-object type `E` (Definition 6).
///
/// `E` has one object per *relation instance* (per stored adjacency entry,
/// enumerated in CSR order of the step adjacency). Weights satisfy
/// `w(a,e) = w(e,b) = sqrt(w(a,b))`, so `W_out * W_in` reconstructs the
/// original adjacency exactly (Property 1: the decomposition is unique).
struct AtomicDecomposition {
  SparseMatrix out;       ///< `W_AE`, |src| x |instances|
  SparseMatrix in;        ///< `W_EB`, |instances| x |dst|
  Index num_instances{};  ///< |E|
};

/// Decomposes the adjacency of `step` per Definition 6.
AtomicDecomposition DecomposeAtomicRelation(const HinGraph& graph,
                                            const RelationStep& step);

/// \brief Decomposition of a relevance path into two equal-length halves
/// meeting at a middle type `M` (Definition 5).
///
/// For an even-length path `P = PL PR`, `M = A(l/2 + 1)` and both chains are
/// ordinary transition chains. For an odd-length path the middle atomic
/// relation is split through an edge-object type `E` (Definition 6), making
/// the effective length even; `M = E`.
///
/// `left_transitions` maps the source type `A1` to `M` along `PL`;
/// `right_transitions` maps the target type `A(l+1)` to `M` along `PR^-1`.
/// HeteSim(a, b | P) is then the (normalized) dot product of row `a` of the
/// left chain product and row `b` of the right chain product (Equation 6/8).
struct PathDecomposition {
  std::vector<SparseMatrix> left_transitions;
  std::vector<SparseMatrix> right_transitions;
  Index middle_dimension = 0;       ///< |M|
  bool edge_object_inserted = false;  ///< true iff the path length was odd
};

/// Builds the decomposition of `path` over `graph`.
PathDecomposition DecomposePath(const HinGraph& graph, const MetaPath& path);

/// One half of `DecomposePath(graph, path)`: its `left_transitions` when
/// `left_side`, else its `right_transitions`, without building the other
/// half. For callers that read the other half from a cache.
std::vector<SparseMatrix> DecomposeHalf(const HinGraph& graph,
                                        const MetaPath& path, bool left_side);

/// Product of the left chain: `PM_PL`, |A1| x |M|, computed under `ctx`
/// at `num_threads` (see `MultiplyChain`).
[[nodiscard]] Result<SparseMatrix> LeftReachMatrix(
    const PathDecomposition& decomposition, int num_threads,
    const QueryContext& ctx = QueryContext::Background());
/// Product of the right chain: `PM_(PR^-1)`, |A(l+1)| x |M|.
[[nodiscard]] Result<SparseMatrix> RightReachMatrix(
    const PathDecomposition& decomposition, int num_threads,
    const QueryContext& ctx = QueryContext::Background());

/// Sequential, context-free forms of the two half products, for oracles
/// that compare against them. They abort if the product fails, which only
/// an armed `spgemm.alloc` fault point can make happen.
SparseMatrix LeftReachMatrix(const PathDecomposition& decomposition);
SparseMatrix RightReachMatrix(const PathDecomposition& decomposition);

}  // namespace hetesim

#endif  // HETESIM_CORE_PATH_MATRIX_H_
