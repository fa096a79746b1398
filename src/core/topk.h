#ifndef HETESIM_CORE_TOPK_H_
#define HETESIM_CORE_TOPK_H_

#include <memory>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/frontier.h"
#include "core/hetesim.h"
#include "hin/graph.h"
#include "hin/metapath.h"
#include "matrix/sparse.h"

namespace hetesim {

class PathMatrixCache;  // materialize.h

/// The `k` highest-scoring entries of `scores`, descending, ties broken by
/// ascending id (stable across platforms). `k` larger than the input size
/// returns everything ranked.
std::vector<Scored> TopK(const std::vector<double>& scores, int k);

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
/// A searcher holds two shared objects taken from a `PathMatrixCache`: the
/// path's left reachable matrix and its right half's `TargetIndex` (the
/// inverted index from middle objects to targets plus per-target norms), so
/// each query reads one row of the left half and does work proportional to
/// the candidate set. `Prepare` is the only way to build one. It serves
/// callers that pin one path for many queries (`TopKPairs`, benches,
/// replays); a one-off or served top-k is `HeteSimEngine::ComputeTopK`,
/// which reads the cache on every call and, without one, propagates the
/// source instead of multiplying the left half.
class TopKSearcher {
 public:
  TopKSearcher(TopKSearcher&&) = default;
  TopKSearcher(const TopKSearcher&) = delete;

  /// Prepares the searcher: the left half and the index come from `cache`
  /// (`GetLeft`, `GetTargetIndex`), computed under `ctx` (deadline /
  /// cancellation / budget) on a miss, so even the one-time materialization
  /// of a huge path respects `--deadline-ms`. A half computed on a miss
  /// folds the cheapest cached prefix partial (ad-hoc meta-path reuse).
  /// Without a cache the halves are computed through a private one, so a
  /// symmetric path's identical halves are computed once. The searcher
  /// shares what it holds, so it outlives the cache, its eviction and
  /// `Clear()`.
  [[nodiscard]] static Result<TopKSearcher> Prepare(
      const HinGraph& graph, const MetaPath& path, HeteSimOptions options = {},
      const QueryContext& ctx = QueryContext::Background(),
      PathMatrixCache* cache = nullptr);

  /// Single-source top-k (DESIGN.md §14): `ScatterTopK` of the source's row
  /// of the left half through the index, so an expired `ctx` truncates the
  /// ranking (`truncated = true`) instead of failing it.
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
  TopKSearcher(bool normalized, std::shared_ptr<const SparseMatrix> left,
               std::shared_ptr<const TargetIndex> index)
      : normalized_(normalized), left_(std::move(left)), index_(std::move(index)) {}

  bool normalized_;
  /// The left reachable matrix (|sources| x |middle|) and the right half's
  /// inverted index and target norms. Shared so cache-served halves are
  /// referenced, not copied, by every searcher and single-source query.
  std::shared_ptr<const SparseMatrix> left_;
  std::shared_ptr<const TargetIndex> index_;
};

}  // namespace hetesim

#endif  // HETESIM_CORE_TOPK_H_
