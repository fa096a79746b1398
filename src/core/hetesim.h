#ifndef HETESIM_CORE_HETESIM_H_
#define HETESIM_CORE_HETESIM_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/context.h"
#include "common/result.h"
#include "core/frontier.h"
#include "core/path_matrix.h"
#include "hin/graph.h"
#include "hin/metapath.h"
#include "matrix/dense.h"

namespace hetesim {

class PathMatrixCache;  // materialize.h
class TraceSpan;        // common/trace.h

/// Options controlling HeteSim evaluation.
struct HeteSimOptions {
  /// When true (the default, and what the paper calls "HeteSim" from
  /// Section 4.4 on), scores are cosine-normalized per Definition 10 and lie
  /// in [0, 1] with self-maximum on symmetric paths (Property 4). When
  /// false, the raw pairwise meeting probability of Equation 5 is returned —
  /// needed for the SimRank connection (Property 5).
  bool normalized = true;

  /// Relative per-hop truncation threshold for frontier propagation
  /// (Section 4.6: "approximate algorithms ... with a small loss of
  /// accuracy"): after each hop, entries below `truncation` times the hop's
  /// largest entry are dropped and their L1 mass recorded, keeping the
  /// frontier sparse on hub-heavy networks. It applies wherever a query
  /// propagates a frontier, which only the cache-less engine's pair,
  /// single-source and top-k queries do; cached queries and `TopKSearcher`
  /// read materialized halves and ignore it. 0 (the default) is exact.
  double truncation = 0.0;

  /// Threads used by the full-matrix `Compute` (the SpGEMM of the two
  /// reachable matrices and the normalization sweep are row-parallel), by
  /// every half product a query computes, and by the cached `ComputePairs`
  /// scoring loop. Parallel regions run on
  /// the shared, lazily-created process-wide thread pool — no threads are
  /// spawned per call. 1 (the default) runs fully sequentially on the
  /// calling thread; 0 means "use all hardware threads via the pool".
  ///
  /// Determinism is *per plan*: chain products execute the association
  /// plan chosen by the cost model (`matrix/chain_plan.h`), and a fixed
  /// plan is bitwise identical at any thread count. The plan itself is a
  /// pure function of the chain's shapes and fills, so the same graph and
  /// path always reproduce the same scores; but association order changes
  /// floating-point rounding, so results are only ~1e-12-close to the
  /// seed's strict left-to-right evaluation, not bitwise equal to it.
  int num_threads = 1;
};

/// \brief The HeteSim relevance measure (Section 4 of the paper).
///
/// `HeteSimEngine` evaluates the relatedness of heterogeneous objects —
/// same-typed or different-typed — along a user-chosen relevance path.
/// It implements:
///  * full relevance matrices `HeteSim(A1, A(l+1) | P)` (Equation 6),
///  * single-source queries (one row of the matrix, computed lazily) and
///    their ranked form, single-source top-k,
///  * single-pair queries (one dot product given materialized halves),
/// with an optional `PathMatrixCache` for cross-query reuse of partial
/// reachable-probability products (the Section 4.6 acceleration).
///
/// The engine holds a non-owning reference to the graph, which must outlive
/// it. Engines are cheap to construct; all heavy state lives in the cache.
class HeteSimEngine {
 public:
  /// Creates an engine over `graph`. If `cache` is non-null, left/right
  /// reachable-probability products are stored there and reused across
  /// queries (including by other engines sharing the cache).
  explicit HeteSimEngine(const HinGraph& graph, HeteSimOptions options = {},
                         std::shared_ptr<PathMatrixCache> cache = nullptr);

  /// Full relevance matrix between all sources and all targets of `path`:
  /// entry (a, b) is HeteSim(a, b | P). Shape |A1| x |A(l+1)|. The
  /// reachable-matrix products and the normalization sweep poll `ctx` at
  /// chunk granularity, so an expired or cancelled query stops within one
  /// chunk's worth of work. Fails with `InvalidArgument` for a path parsed
  /// against another schema, or `DeadlineExceeded` / `Cancelled` /
  /// `ResourceExhausted`.
  [[nodiscard]] Result<DenseMatrix> Compute(
      const MetaPath& path,
      const QueryContext& ctx = QueryContext::Background()) const;

  /// Relevance of `source` to every target object: one row of `Compute`.
  /// Errors when `source` is out of range for the path's source type. With
  /// a cache, the source's cached left-half row is scattered through the
  /// right half's shared `TargetIndex` (`ScatterRow`: bitwise equal to the
  /// dense row product); without one, the one-shot plan propagates the
  /// source's frontier (`PropagateFrontier`), densifies it over the middle
  /// type and multiplies it into the computed right half, the only half it
  /// multiplies. Cache misses, the propagation and the scatter run under
  /// `ctx`, and the answer row (and the dense frontier) are reserved on its
  /// budget.
  [[nodiscard]] Result<std::vector<double>> ComputeSingleSource(
      const MetaPath& path, Index source,
      const QueryContext& ctx = QueryContext::Background()) const;

  /// The `k` targets most relevant to `source` (DESIGN.md §14), by
  /// descending score, ties by ascending id. With a cache, `ScatterTopK`
  /// scatters the source's cached left-half row through the right half's
  /// shared `TargetIndex`, both looked up as in `ComputeSingleSource`; cache
  /// reads fail on `ctx`'s expiry, and the scatter returns a marked partial
  /// ranking instead (`TopKResult::truncated`). Without a cache, `RankRow`
  /// ranks the positive entries of the one-shot single-source row (the
  /// propagation honours `truncation`), with that row's reservations: the
  /// query fails on expiry or returns the complete ranking, never a
  /// truncated one.
  [[nodiscard]] Result<TopKResult> ComputeTopK(
      const MetaPath& path, Index source, int k,
      const QueryContext& ctx = QueryContext::Background()) const;

  /// Relevance of the single pair (`source`, `target`): the one score of
  /// `ComputePairs(path, {{source, target}}, ctx)`.
  [[nodiscard]] Result<double> ComputePair(
      const MetaPath& path, Index source, Index target,
      const QueryContext& ctx = QueryContext::Background()) const;

  /// Relevance of many pairs along one path, sharing one path
  /// decomposition and reusing the propagated distribution of every
  /// repeated source/target — the right call shape for scoring candidate
  /// lists (e.g. recommendation rerankers). Returns scores aligned with
  /// `pairs`. Errors if any id is out of range. Materialization and the
  /// scoring loop poll `ctx`; nothing partial is returned on expiry.
  [[nodiscard]] Result<std::vector<double>> ComputePairs(
      const MetaPath& path, const std::vector<std::pair<Index, Index>>& pairs,
      const QueryContext& ctx = QueryContext::Background()) const;

  /// Sum of unnormalized HeteSim over the paths `(R R^-1)^k`, k = 1..depth,
  /// for two objects of the relation's source type. By Property 5 this
  /// converges to SimRank(a1, a2) with damping C = 1 on the bipartite graph
  /// of `relation`. Exposed mainly for tests and the SimRank benches.
  [[nodiscard]] Result<double> SimRankSeries(RelationId relation, Index a1, Index a2,
                               int depth) const;

  /// The graph this engine evaluates against.
  const HinGraph& graph() const { return graph_; }
  /// The options this engine was created with.
  const HeteSimOptions& options() const { return options_; }

 private:
  /// `Compute` body, separated so the public entry point can bracket it
  /// with the query span, the latency observation, and the terminal-status
  /// counters (DESIGN.md §12) while the body keeps using the early-return
  /// Status macros.
  [[nodiscard]] Result<DenseMatrix> ComputeTraced(const MetaPath& path,
                                                  const QueryContext& ctx,
                                                  TraceSpan& span) const;
  /// Same split for `ComputePairs`.
  [[nodiscard]] Result<std::vector<double>> ComputePairsTraced(
      const MetaPath& path, const std::vector<std::pair<Index, Index>>& pairs,
      const QueryContext& ctx, TraceSpan& span) const;
  /// Left/right reachable matrices for `path` under `ctx`, via the cache
  /// when present. Cached halves are shared, not copied.
  [[nodiscard]] Status GetHalves(
      const MetaPath& path, const QueryContext& ctx,
      std::shared_ptr<const SparseMatrix>* left,
      std::shared_ptr<const SparseMatrix>* right) const;

  const HinGraph& graph_;
  HeteSimOptions options_;
  std::shared_ptr<PathMatrixCache> cache_;
};

}  // namespace hetesim

#endif  // HETESIM_CORE_HETESIM_H_
