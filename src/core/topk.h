#ifndef HETESIM_CORE_TOPK_H_
#define HETESIM_CORE_TOPK_H_

#include <memory>
#include <vector>

#include "common/result.h"
#include "core/frontier.h"
#include "core/hetesim.h"
#include "hin/graph.h"
#include "hin/metapath.h"
#include "matrix/sparse.h"

namespace hetesim {

class PathMatrixCache;  // materialize.h

/// A ranked object: per-type node id plus its relevance score.
struct Scored {
  Index id = -1;
  double score = 0.0;

  friend bool operator==(const Scored& a, const Scored& b) {
    return a.id == b.id && a.score == b.score;
  }
};

/// The `k` highest-scoring entries of `scores`, descending, ties broken by
/// ascending id (stable across platforms). `k` larger than the input size
/// returns everything ranked.
std::vector<Scored> TopK(const std::vector<double>& scores, int k);

/// Result of a top-k query, with the work counters used by the pruning
/// bench.
struct TopKResult {
  std::vector<Scored> items;
  /// Number of candidate targets actually scored. Exhaustive search scores
  /// every object of the target type; `TopKSearcher::Query` only those
  /// sharing a middle object with the source's frontier (Section 4.6: "the
  /// related objects to a searched object are a very small percentage ...
  /// pruning techniques can be used").
  Index candidates_examined = 0;
  /// True when a deadline (or cancellation) cut the query short: `items`
  /// then ranks only the candidates reached through the first
  /// `middle_processed` of `middle_total` frontier entries — every reported
  /// score is a valid partial lower bound, but objects may be missing or
  /// under-scored. A cut inside the propagation itself leaves `items`
  /// empty. Always false for queries run without a context.
  bool truncated = false;
  /// Frontier entries (middle objects the source reaches) scattered into
  /// the scores before stopping.
  Index middle_processed = 0;
  /// The source frontier's support: the middle objects it reaches.
  Index middle_total = 0;
  /// Upper bound on the L1 probability mass dropped by per-hop truncation
  /// (`HeteSimOptions::truncation`); 0 for exact runs. Scores may drift by
  /// up to roughly this mass (normalization makes the bound heuristic
  /// rather than strict).
  double error_bound = 0.0;
};

/// A scored (source, target) pair for global top-k joins.
struct ScoredPair {
  Index source = -1;
  Index target = -1;
  double score = 0.0;

  friend bool operator==(const ScoredPair& a, const ScoredPair& b) {
    return a.source == b.source && a.target == b.target && a.score == b.score;
  }
};

/// \brief Global top-k relevance join: the `k` most related
/// (source, target) pairs along `path` across ALL sources, descending by
/// score (ties by ascending source then target). The per-source sparse
/// search keeps this at "touched candidates" cost rather than |A| x |B|.
/// `k < 0` is an error; self-pairs are included (on symmetric paths they
/// dominate, so callers ranking cross-object affinity may want
/// `exclude_diagonal`).
[[nodiscard]] Result<std::vector<ScoredPair>> TopKPairs(const HinGraph& graph,
                                          const MetaPath& path, int k,
                                          bool exclude_diagonal = false,
                                          HeteSimOptions options = {});

/// \brief Prepared single-source top-k HeteSim search along a fixed path.
///
/// Preparation materializes the left half's transitions and the right
/// half's `TargetIndex` (the inverted index from middle objects to targets
/// plus per-target norms), so each query costs one sparse frontier
/// propagation plus work proportional to the candidate set. `Prepare` is
/// the only way to build one.
class TopKSearcher {
 public:
  TopKSearcher(TopKSearcher&&) = default;
  TopKSearcher(const TopKSearcher&) = delete;

  /// Prepares the searcher; O(path matrix products) once. The right-chain
  /// product runs under `ctx` (deadline / cancellation / budget), so even
  /// the one-time materialization of a huge path respects `--deadline-ms`.
  /// A non-null `cache` makes preparation ad-hoc-path aware: only the left
  /// half is decomposed, the index is the cache's shared one
  /// (`PathMatrixCache::GetTargetIndex`, built from `GetRightWithReuse`'s
  /// half, which folds the cheapest cached partial products instead of
  /// recomputing from scratch), and the left chain is planned against
  /// cached prefix partials too. The cache must outlive the searcher;
  /// without one the searcher builds a private index.
  [[nodiscard]] static Result<TopKSearcher> Prepare(
      const HinGraph& graph, const MetaPath& path, HeteSimOptions options = {},
      const QueryContext& ctx = QueryContext::Background(),
      PathMatrixCache* cache = nullptr);

  /// Single-source top-k (DESIGN.md §14): propagates the source frontier
  /// through the left chain (`PropagateFrontier`), scatters it through the
  /// inverted index in ascending middle order, normalizes and
  /// partial-sorts. Exact: targets outside the candidate set provably score
  /// 0. The context is polled at an adaptive stride; on expiry the scores
  /// accumulated so far are ranked and returned with `truncated = true`
  /// instead of an error, so callers get a best-effort partial answer
  /// within one poll stride of the deadline.
  [[nodiscard]] Result<TopKResult> Query(
      Index source, int k,
      const QueryContext& ctx = QueryContext::Background()) const;

  /// Exhaustive reference query scoring every target from a dense source
  /// row (`LeftMultiplyVector` through the index); the test oracle for
  /// `Query`.
  [[nodiscard]] Result<TopKResult> QueryExhaustive(Index source, int k) const;

  /// Number of target-type objects.
  Index num_targets() const { return index_->num_targets(); }

 private:
  /// Partially-initialized searcher for `Prepare` to fill in.
  TopKSearcher(const HinGraph& graph, HeteSimOptions options, Index num_sources)
      : graph_(graph), options_(options), num_sources_(num_sources) {}

  /// `Query` body, separated so the public entry point can bracket it with
  /// the query span, the latency observation, and the truncation counter
  /// (DESIGN.md §12).
  [[nodiscard]] Result<TopKResult> QueryTraced(Index source, int k,
                                               const QueryContext& ctx) const;

  const HinGraph& graph_;
  HeteSimOptions options_;
  Index num_sources_;
  std::vector<SparseMatrix> left_transitions_;
  /// The right half's inverted index and target norms. Shared so a
  /// cache-served index is referenced, not copied, by every searcher and
  /// single-source query over the same right half.
  std::shared_ptr<const TargetIndex> index_;
  /// Cached partial product covering the first `left_head_steps_` left-chain
  /// matrices (ad-hoc meta-path reuse), or null.
  std::shared_ptr<const SparseMatrix> left_head_;
  size_t left_head_steps_ = 0;
};

}  // namespace hetesim

#endif  // HETESIM_CORE_TOPK_H_
