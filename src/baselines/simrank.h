#ifndef HETESIM_BASELINES_SIMRANK_H_
#define HETESIM_BASELINES_SIMRANK_H_

#include "hin/graph.h"
#include "hin/homogeneous.h"
#include "matrix/dense.h"
#include "matrix/sparse.h"

namespace hetesim {

/// Options for the iterative SimRank computation (Jeh & Widom, KDD 2002).
struct SimRankOptions {
  /// Decay factor C of the recurrence (the paper's Property 5 statement
  /// sets C = 1 for the HeteSim connection).
  double decay = 0.8;
  /// Maximum fixed-point iterations.
  int max_iterations = 10;
  /// Early-stop threshold on the max entry change between iterations.
  double tolerance = 1e-6;
};

/// \brief Classic SimRank over an entire heterogeneous network collapsed to
/// its homogeneous view (all (T n)^2 pairs at once — the O(k d n^2 T^4)
/// regime of Section 4.6). Entry lookup via `view.GlobalId(type, id)`.
///
/// `view.adjacency(i, j) != 0` means an edge i -> j; the recurrence
/// averages over *in*-neighbors as in the original paper:
///   s(a, b) = C / (|I(a)| |I(b)|) * sum_{i,j} s(I_i(a), I_j(b)),
/// with s(a, a) = 1 pinned every iteration. Runs in O(iterations * d * n^2)
/// time and O(n^2) space — the complexity HeteSim's Section 4.6 analysis
/// compares against.
DenseMatrix SimRankHeterogeneous(const HomogeneousView& view,
                                 const SimRankOptions& options = {});

/// \brief The truncated meeting-probability series of Property 5.
///
/// For a bipartite relation `W: A -> B`, returns
///   sum_{k=1..depth} M_k M_k'
/// where `M_k` is the product of the first `k` alternating transition
/// matrices `U_AB, U_BA, U_AB, ...` (row-normalized W and W'). By
/// Property 5 this equals the sum of *unnormalized* HeteSim over the paths
/// `(R R^-1)^k` on the A side (pass `a_side = false` for the B side,
/// alternation starting with `U_BA`) and converges to SimRank with C = 1.
DenseMatrix BipartiteSimRankSeries(const SparseMatrix& w, int depth,
                                   bool a_side = true);

}  // namespace hetesim

#endif  // HETESIM_BASELINES_SIMRANK_H_
