#ifndef HETESIM_CORE_FRONTIER_H_
#define HETESIM_CORE_FRONTIER_H_

#include <algorithm>
#include <chrono>
#include <span>
#include <vector>

#include "common/context.h"
#include "common/result.h"
#include "matrix/sparse.h"

namespace hetesim {

/// \file
/// Sparse single-source primitives (DESIGN.md §14).
///
/// One scatter loop adds a sparse row times a CSR matrix into a dense array
/// in ascending row order. Three callers run it: `ScatterRow` and
/// `ScatterTopK` scatter a source's row of a path's left reachable matrix
/// through the right half's `TargetIndex` (the cached engine's
/// single-source and top-k queries and `TopKSearcher::Query`), and
/// `PropagateFrontier` runs each hop of a *sparse* row vector propagated
/// from one end of the decomposed path, optionally dropping mass below a
/// relative threshold with a tracked error bound (the paper's §4.6 pruning
/// discussion made concrete). The cache-less engine answers a source from
/// its propagated frontier and the right half alone, and ranks that row
/// with `RankRow`. Every pair score, cached or propagated, is one
/// `RowCosine` of two sorted sparse rows.

/// Adaptive deadline/cancellation poll pacing for item-granular loops.
///
/// A fixed poll stride is too rare for expensive items (deadline overshoot)
/// and needlessly frequent for cheap ones. This controller measures the
/// elapsed time between polls and re-derives the stride from the observed
/// per-item cost, targeting ~25us between polls, clamped to [32, 16384].
class PollStrideController {
 public:
  static constexpr size_t kInitialStride = 64;
  static constexpr size_t kMinStride = 32;
  static constexpr size_t kMaxStride = 16384;

  PollStrideController()
      : stride_(kInitialStride),
        next_(stride_),
        last_poll_(std::chrono::steady_clock::now()) {}

  /// True when `item` crosses the next poll point. The caller then checks
  /// its context; this call re-paces the stride from the measured cost.
  bool ShouldPoll(size_t item) {
    if (item < next_) return false;
    const auto now = std::chrono::steady_clock::now();
    const double elapsed =
        std::chrono::duration<double>(now - last_poll_).count();
    const double per_item =
        elapsed / static_cast<double>(std::max<size_t>(stride_, 1));
    if (per_item > 0.0) {
      const double want = kTargetPollSeconds / per_item;
      stride_ = static_cast<size_t>(
          std::clamp(want, static_cast<double>(kMinStride),
                     static_cast<double>(kMaxStride)));
    } else {
      // Clock too coarse to see the stride: widen geometrically.
      stride_ = std::min(stride_ * 2, kMaxStride);
    }
    last_poll_ = now;
    next_ = item + stride_;
    return true;
  }

  size_t stride() const { return stride_; }

 private:
  static constexpr double kTargetPollSeconds = 25e-6;

  size_t stride_;
  size_t next_;
  std::chrono::steady_clock::time_point last_poll_;
};

/// A sparse non-negative row vector: parallel (indices, values) with
/// strictly ascending indices, plus the L1 mass discarded by per-hop
/// truncation (0 when the propagation ran exact).
struct SparseVector {
  std::vector<Index> indices;
  std::vector<double> values;
  double dropped_mass = 0.0;

  size_t nnz() const { return indices.size(); }
};

/// The right half of a decomposed path in the form a query reads it: the
/// middle->target inverted index and every target's norm (DESIGN.md §14).
/// One is built per right half and shared: `PathMatrixCache::GetTargetIndex`
/// caches it under its half's key, so every `TopKSearcher` and cached
/// single-source or top-k query whose path ends in that half reads the same
/// one.
struct TargetIndex {
  /// The right reachable matrix transposed, |middle| x |targets|: row `m`
  /// lists the targets middle object `m` reaches, ascending, with their
  /// reach probabilities.
  SparseMatrix by_middle;
  /// `norms[t]` is the L2 norm of the right reachable matrix's row `t`.
  std::vector<double> norms;

  /// Indexes `right`, the |targets| x |middle| `RightReachMatrix`.
  static TargetIndex Build(const SparseMatrix& right);

  Index num_targets() const { return by_middle.cols(); }
  /// Heap footprint, charged to the cache's memory budget.
  size_t ApproxBytes() const {
    return by_middle.ApproxBytes() + sizeof(norms) +
           norms.capacity() * sizeof(double);
  }
};

/// Single-source HeteSim of a source whose left-half row is (`middles`,
/// `weights`), ascending middle ids and their reach probabilities: the row
/// is scattered through `index` in ascending middle order into a dense row
/// over every target, then, when `normalized`, its nonzero entries are
/// divided by the row's norm and the stored target norms (Definition 10).
/// That is the term order of the dense
/// `right.MultiplyVector(left.RowDense(source))`, so the scores are bitwise
/// equal to it. The output row is reserved against `ctx`'s budget
/// (`ResourceExhausted` when it does not fit) and the scatter polls `ctx`
/// at an adaptive stride.
[[nodiscard]] Result<std::vector<double>> ScatterRow(
    const TargetIndex& index, std::span<const Index> middles,
    std::span<const double> weights, bool normalized, const QueryContext& ctx);

/// A ranked object: per-type node id plus its relevance score.
struct Scored {
  Index id = -1;
  double score = 0.0;

  friend bool operator==(const Scored& a, const Scored& b) {
    return a.id == b.id && a.score == b.score;
  }
};

/// Result of a top-k query, with the work counters used by the pruning
/// bench.
struct TopKResult {
  std::vector<Scored> items;
  /// Number of candidate targets actually scored. Exhaustive search scores
  /// every object of the target type; `ScatterTopK` only those sharing a
  /// middle object with the source (Section 4.6: "the related objects to a
  /// searched object are a very small percentage ... pruning techniques can
  /// be used").
  Index candidates_examined = 0;
  /// True when a deadline (or cancellation) cut the query short: `items`
  /// then ranks only the candidates reached through the first
  /// `middle_processed` of `middle_total` middle objects — every reported
  /// score is a valid partial lower bound, but objects may be missing or
  /// under-scored. Always false for queries run without a context.
  bool truncated = false;
  /// Middle objects of the source's row scattered into the scores before
  /// stopping.
  Index middle_processed = 0;
  /// The entries of the source's row of the left reachable matrix: the
  /// middle objects it reaches.
  Index middle_total = 0;
};

/// The `k` best targets of a source whose left-half row is (`middles`,
/// `weights`) (DESIGN.md §14): `ScatterRow`'s ascending scatter, with
/// bitwise-equal scores, over only the targets a nonzero contribution
/// reaches (a store's quantized +0.0 registers none), ranked by descending
/// score, ties by ascending id. The dense scores and touched list are
/// reserved on `ctx`'s budget. There is no up-front liveness check: the
/// scatter polls `ctx` at an adaptive stride and, on expiry, ranks what it
/// accumulated with `truncated = true` instead of failing. Traced as
/// `topk.query`; counted in the `hetesim_topk_*` metrics.
[[nodiscard]] Result<TopKResult> ScatterTopK(const TargetIndex& index,
                                             std::span<const Index> middles,
                                             std::span<const double> weights,
                                             int k, bool normalized,
                                             const QueryContext& ctx);

/// The `k` best targets of a complete single-source row `scores` (the
/// cache-less engine's one-shot answer): its nonzero entries, ranked like
/// `ScatterTopK`'s candidates by descending score, ties by ascending id,
/// with `candidates_examined` their count. `middles` is the number of
/// middle objects the source reached, reported as both `middle_total` and
/// `middle_processed`: a complete row is never truncated. Traced as
/// `topk.query`; counted in the `hetesim_topk_*` metrics.
[[nodiscard]] Result<TopKResult> RankRow(std::span<const double> scores,
                                         Index middles, int k,
                                         const QueryContext& ctx);

/// Propagates the indicator vector of `source` through `steps`, one half's
/// per-step transitions, keeping the frontier sparse. Each hop scatters
/// the frontier into a dense array of its output dimension in ascending
/// input order, so at `relative_threshold = 0` the values are bitwise equal
/// to the dense `VectorThroughChain`. `relative_threshold` in [0, 1) drops
/// entries below `threshold * max_entry` after each hop, accumulating the
/// dropped L1 mass into the result's `dropped_mass` (0 = exact). Each hop
/// charges its accumulator against `ctx`'s memory budget and polls `ctx` at
/// an adaptive stride inside its scatter. Fails with `ResourceExhausted` at
/// the `frontier.alloc` fault point.
[[nodiscard]] Result<SparseVector> PropagateFrontier(
    Index source, const std::vector<SparseMatrix>& steps,
    double relative_threshold, const QueryContext& ctx);

/// HeteSim of one pair from its two reachable-probability rows, each given
/// as strictly ascending indices with their values (a CSR row or a
/// propagated frontier): the dot product by a two-pointer merge in
/// ascending index order — the term order of the dense accumulation — and,
/// when `normalized`, its cosine (Definition 10), 0 when either row is all
/// zero. Unnormalized, it is the raw meeting probability of Equation 5.
double RowCosine(std::span<const Index> a_indices,
                 std::span<const double> a_values,
                 std::span<const Index> b_indices,
                 std::span<const double> b_values, bool normalized);

}  // namespace hetesim

#endif  // HETESIM_CORE_FRONTIER_H_
