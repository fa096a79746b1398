#include "core/frontier.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "matrix/ops.h"

namespace hetesim {

namespace {

/// Top-k query instruments (DESIGN.md §12). `truncated` counts best-effort
/// answers cut short by a deadline/cancellation — the ranked scatter's
/// documented partial-result contract, surfaced so dashboards can tell
/// truncation pressure from plain load.
struct TopKMetrics {
  Counter& queries;
  Counter& truncated;
  Histogram& latency;
};

TopKMetrics& GlobalTopKMetrics() {
  static TopKMetrics metrics{
      MetricsRegistry::Global().GetCounter("hetesim_topk_queries_total"),
      MetricsRegistry::Global().GetCounter("hetesim_topk_truncated_total"),
      MetricsRegistry::Global().GetHistogram(
          "hetesim_topk_query_latency_seconds",
          DefaultLatencyBoundariesSeconds()),
  };
  return metrics;
}

/// The one scatter loop (DESIGN.md §14): adds `weights[j]` times row
/// `rows[j]` of `m` into `acc` for ascending `j` — the term order of a
/// dense row-times-matrix product, so every sum is bitwise reproducible.
/// With `kRecordTouched`, an exact-zero contribution is skipped (it changes
/// no bit of `acc`) and an entry's first nonzero one appends its column to
/// `touched`. Polls `ctx` at an adaptive stride and stops at the first
/// poll that finds it expired. Returns how many entries of `rows` it
/// scattered.
template <bool kRecordTouched>
size_t Scatter(const SparseMatrix& m, std::span<const Index> rows,
               std::span<const double> weights, const QueryContext& ctx,
               std::span<double> acc, std::vector<Index>* touched) {
  PollStrideController poller;
  for (size_t j = 0; j < rows.size(); ++j) {
    if (j > 0 && poller.ShouldPoll(j) && ctx.Expired()) return j;
    const double w = weights[j];
    const auto cols = m.RowIndices(rows[j]);
    const auto vals = m.RowValues(rows[j]);
    for (size_t i = 0; i < cols.size(); ++i) {
      const double contribution = w * vals[i];
      double& slot = acc[static_cast<size_t>(cols[i])];
      if constexpr (kRecordTouched) {
        if (contribution == 0.0) continue;
        if (slot == 0.0) touched->push_back(cols[i]);
      }
      slot += contribution;
    }
  }
  return rows.size();
}

/// Keeps the best `k` of `candidates`: descending score, ties by ascending
/// id.
std::vector<Scored> KeepBest(std::vector<Scored> candidates, int k) {
  auto by_score_desc = [](const Scored& a, const Scored& b) {
    return a.score != b.score ? a.score > b.score : a.id < b.id;
  };
  const size_t keep =
      std::min(static_cast<size_t>(std::max(k, 0)), candidates.size());
  std::partial_sort(candidates.begin(),
                    candidates.begin() + static_cast<ptrdiff_t>(keep),
                    candidates.end(), by_score_desc);
  candidates.resize(keep);
  return candidates;
}

/// Brackets a top-k query with the `topk.query` span, the latency
/// observation and the truncation counter.
template <typename Query>
Result<TopKResult> TracedTopK(int k, const QueryContext& ctx, Query query) {
  TraceSpan span(ctx.trace(), "topk.query");
  if (span.active()) span.Annotate("k", std::to_string(k));
  Stopwatch stopwatch;
  Result<TopKResult> result = query();
  if (MetricsEnabled()) {
    TopKMetrics& metrics = GlobalTopKMetrics();
    metrics.queries.Increment();
    metrics.latency.Observe(stopwatch.ElapsedSeconds());
    if (result.ok() && result->truncated) metrics.truncated.Increment();
  }
  if (span.active()) {
    if (!result.ok()) {
      span.Annotate("status",
                    std::string(StatusCodeToString(result.status().code())));
    } else if (result->truncated) {
      span.Annotate("truncated", "true");
    }
  }
  return result;
}

/// `ScatterTopK` body, run inside `TracedTopK`.
Result<TopKResult> ScatterTopKTraced(const TargetIndex& index,
                                     std::span<const Index> middles,
                                     std::span<const double> weights, int k,
                                     bool normalized, const QueryContext& ctx) {
  TopKResult result;
  result.middle_total = static_cast<Index>(middles.size());
  const double nu = Norm2(weights);
  if (nu == 0.0) {
    // Source reaches nothing: the empty answer is complete, not truncated.
    result.middle_processed = result.middle_total;
    return result;
  }
  // On expiry the partial scores are ranked and returned with the
  // truncation marker set.
  const size_t num_targets = static_cast<size_t>(index.num_targets());
  HETESIM_ASSIGN_OR_RETURN(
      MemoryReservation reservation,
      ctx.Reserve(num_targets * (sizeof(double) + sizeof(Index))));
  std::vector<double> scores(num_targets, 0.0);
  std::vector<Index> touched;
  const size_t processed =
      Scatter<true>(index.by_middle, middles, weights, ctx, scores, &touched);
  result.truncated = processed < middles.size();
  result.middle_processed = static_cast<Index>(processed);
  result.candidates_examined = static_cast<Index>(touched.size());
  std::vector<Scored> candidates;
  candidates.reserve(touched.size());
  // Bounded normalize-and-collect pass; the scatter above polls.
  for (Index t : touched) {  // hetesim-lint: allow(cancel-poll)
    double s = scores[static_cast<size_t>(t)];
    if (normalized) {
      const double nt = index.norms[static_cast<size_t>(t)];
      if (nt != 0.0) s /= nu * nt;
    }
    if (s != 0.0) candidates.push_back({t, s});
  }
  result.items = KeepBest(std::move(candidates), k);
  return result;
}

/// One hop of frontier propagation: `y = x^T * m`, scattering only the rows
/// `x` reaches while recording the columns they touch; sorting that list
/// emits the hop ascending. Entries below `relative_threshold * max_entry`
/// are dropped, their L1 mass added to the frontier's running error bound.
Result<SparseVector> ApplyHop(const SparseVector& x, const SparseMatrix& m,
                              double relative_threshold,
                              const QueryContext& ctx) {
  // Charge the dense accumulator and the touched list (bounded by the
  // hop's output support) against the query's memory budget before
  // allocating either.
  const size_t num_cols = static_cast<size_t>(m.cols());
  size_t out_bound = 0;
  for (Index row : x.indices) {
    out_bound += static_cast<size_t>(m.RowNnz(row));
  }
  out_bound = std::min(out_bound, num_cols);
  HETESIM_ASSIGN_OR_RETURN(
      MemoryReservation reservation,
      ctx.Reserve(num_cols * sizeof(double) + out_bound * sizeof(Index)));
  std::vector<double> acc(num_cols, 0.0);
  std::vector<Index> touched;
  touched.reserve(out_bound);
  // Hops are unbounded work (a hub row can touch the whole target type), so
  // the scatter polls and an expired context fails the hop.
  if (Scatter<true>(m, x.indices, x.values, ctx, acc, &touched) < x.nnz()) {
    return ctx.CheckAlive();
  }
  // A slot that a product left at zero is pushed again on its next touch.
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  double max_abs = 0.0;
  for (Index col : touched) {
    max_abs = std::max(max_abs, std::abs(acc[static_cast<size_t>(col)]));
  }
  const double cutoff =
      relative_threshold > 0.0 ? relative_threshold * max_abs : 0.0;
  SparseVector y;
  y.dropped_mass = x.dropped_mass;
  y.indices.reserve(touched.size());
  y.values.reserve(touched.size());
  // Bounded pass over the already-reserved accumulator; the scatter above
  // is where the hop's unbounded work (and polling) lives.
  for (Index col : touched) {  // hetesim-lint: allow(cancel-poll)
    const double value = acc[static_cast<size_t>(col)];
    if (value == 0.0) continue;
    if (std::abs(value) < cutoff) {
      y.dropped_mass += std::abs(value);
      continue;
    }
    y.indices.push_back(col);
    y.values.push_back(value);
  }
  return y;
}

}  // namespace

Result<SparseVector> PropagateFrontier(Index source,
                                       const std::vector<SparseMatrix>& steps,
                                       double relative_threshold,
                                       const QueryContext& ctx) {
  if (!steps.empty() && (source < 0 || source >= steps.front().rows())) {
    return Status::OutOfRange("source id out of range");
  }
  if (HETESIM_FAULT_POINT("frontier.alloc")) {
    return Status::ResourceExhausted(
        "injected allocation failure at frontier.alloc");
  }
  SparseVector x;
  x.indices.push_back(source);
  x.values.push_back(1.0);
  for (const SparseMatrix& step : steps) {
    HETESIM_ASSIGN_OR_RETURN(x, ApplyHop(x, step, relative_threshold, ctx));
  }
  return x;
}

TargetIndex TargetIndex::Build(const SparseMatrix& right) {
  TargetIndex index;
  index.by_middle = right.Transpose();
  index.norms.resize(static_cast<size_t>(right.rows()));
  for (Index t = 0; t < right.rows(); ++t) {
    index.norms[static_cast<size_t>(t)] = right.RowNorm(t);
  }
  return index;
}

Result<std::vector<double>> ScatterRow(const TargetIndex& index,
                                       std::span<const Index> middles,
                                       std::span<const double> weights,
                                       bool normalized, const QueryContext& ctx) {
  const size_t num_targets = static_cast<size_t>(index.num_targets());
  HETESIM_ASSIGN_OR_RETURN(MemoryReservation reservation,
                           ctx.Reserve(num_targets * sizeof(double)));
  std::vector<double> scores(num_targets, 0.0);
  if (Scatter<false>(index.by_middle, middles, weights, ctx, scores, nullptr) <
      middles.size()) {
    return ctx.CheckAlive();
  }
  if (!normalized) return scores;
  const double nu = Norm2(weights);
  if (nu == 0.0) {
    // The source reaches no middle object: relevance is 0 to everything
    // (the paper's O(s|R1) = empty convention).
    std::fill(scores.begin(), scores.end(), 0.0);
    return scores;
  }
  // One pass over the answer row, dividing only its nonzero entries (a zero
  // stays zero); the scatter above polls.
  for (size_t t = 0; t < num_targets; ++t) {  // hetesim-lint: allow(cancel-poll)
    if (scores[t] == 0.0) continue;
    const double nt = index.norms[t];
    if (nt != 0.0) scores[t] /= nu * nt;
  }
  return scores;
}

Result<TopKResult> ScatterTopK(const TargetIndex& index,
                               std::span<const Index> middles,
                               std::span<const double> weights, int k,
                               bool normalized, const QueryContext& ctx) {
  return TracedTopK(k, ctx, [&] {
    return ScatterTopKTraced(index, middles, weights, k, normalized, ctx);
  });
}

Result<TopKResult> RankRow(std::span<const double> scores, Index middles,
                           int k, const QueryContext& ctx) {
  return TracedTopK(k, ctx, [&]() -> Result<TopKResult> {
    TopKResult result;
    result.middle_total = middles;
    result.middle_processed = middles;
    std::vector<Scored> candidates;
    // Bounded pass over a row that is already complete.
    for (size_t t = 0; t < scores.size(); ++t) {  // hetesim-lint: allow(cancel-poll)
      if (scores[t] != 0.0) candidates.push_back({static_cast<Index>(t), scores[t]});
    }
    result.candidates_examined = static_cast<Index>(candidates.size());
    result.items = KeepBest(std::move(candidates), k);
    return result;
  });
}

double RowCosine(std::span<const Index> a_indices,
                 std::span<const double> a_values,
                 std::span<const Index> b_indices,
                 std::span<const double> b_values, bool normalized) {
  double dot = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < a_indices.size() && j < b_indices.size()) {
    if (a_indices[i] < b_indices[j]) {
      ++i;
    } else if (a_indices[i] > b_indices[j]) {
      ++j;
    } else {
      dot += a_values[i] * b_values[j];
      ++i;
      ++j;
    }
  }
  if (!normalized) return dot;
  const double na = Norm2(a_values);
  const double nb = Norm2(b_values);
  return (na == 0.0 || nb == 0.0) ? 0.0 : dot / (na * nb);
}

}  // namespace hetesim
