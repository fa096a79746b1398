#include "core/frontier.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"

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

/// `ScatterTopK` body, separated so the entry point can bracket it with the
/// query span, the latency observation and the truncation counter.
Result<TopKResult> ScatterTopKTraced(const TargetIndex& index,
                                     std::span<const Index> middles,
                                     std::span<const double> weights, int k,
                                     bool normalized, const QueryContext& ctx) {
  TopKResult result;
  result.middle_total = static_cast<Index>(middles.size());
  double norm_squared = 0.0;
  for (double w : weights) norm_squared += w * w;
  const double nu = std::sqrt(norm_squared);
  if (nu == 0.0) {
    // Source reaches nothing: the empty answer is complete, not truncated.
    result.middle_processed = result.middle_total;
    return result;
  }
  // Scatter the row in ascending middle order — the term order of a dense
  // row-times-matrix product and of `ScatterRow`, so scores are bitwise
  // reproducible. Skipping an exact +0.0 contribution changes no score bit.
  // On expiry the partial scores are ranked and returned with the
  // truncation marker set.
  const size_t num_targets = static_cast<size_t>(index.num_targets());
  HETESIM_ASSIGN_OR_RETURN(
      MemoryReservation reservation,
      ctx.Reserve(num_targets * (sizeof(double) + sizeof(Index))));
  std::vector<double> scores(num_targets, 0.0);
  std::vector<Index> touched;
  PollStrideController poller;
  size_t processed = middles.size();
  for (size_t j = 0; j < middles.size(); ++j) {
    if (j > 0 && poller.ShouldPoll(j) && ctx.Expired()) {
      result.truncated = true;
      processed = j;
      break;
    }
    const double um = weights[j];
    const auto targets = index.by_middle.RowIndices(middles[j]);
    const auto reach = index.by_middle.RowValues(middles[j]);
    for (size_t i = 0; i < targets.size(); ++i) {
      const double contribution = um * reach[i];
      if (contribution == 0.0) continue;
      double& slot = scores[static_cast<size_t>(targets[i])];
      if (slot == 0.0) touched.push_back(targets[i]);
      slot += contribution;
    }
  }
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
  auto by_score_desc = [](const Scored& a, const Scored& b) {
    return a.score != b.score ? a.score > b.score : a.id < b.id;
  };
  const size_t keep =
      std::min(static_cast<size_t>(std::max(k, 0)), candidates.size());
  std::partial_sort(candidates.begin(),
                    candidates.begin() + static_cast<ptrdiff_t>(keep),
                    candidates.end(), by_score_desc);
  candidates.resize(keep);
  result.items = std::move(candidates);
  return result;
}

/// One hop of frontier propagation: `y = x^T * m`, touching only the rows
/// `x` reaches. Contributions accumulate into a dense array of the hop's
/// output dimension in ascending input-index order (the outer loop) — the
/// term order of the dense `VectorThroughChain`, so values are bitwise equal
/// to it — while a touched list records which columns were reached; sorting
/// that list emits the hop ascending. Entries below
/// `relative_threshold * max_entry` are dropped, their L1 mass added to the
/// frontier's running error bound.
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
  // the gather polls at an adaptive stride.
  PollStrideController poller;
  for (size_t i = 0; i < x.indices.size(); ++i) {
    if (i > 0 && poller.ShouldPoll(i)) {
      HETESIM_RETURN_NOT_OK(ctx.CheckAlive());
    }
    const double xv = x.values[i];
    const auto cols = m.RowIndices(x.indices[i]);
    const auto vals = m.RowValues(x.indices[i]);
    for (size_t j = 0; j < cols.size(); ++j) {
      double& slot = acc[static_cast<size_t>(cols[j])];
      if (slot == 0.0) touched.push_back(cols[j]);
      slot += xv * vals[j];
    }
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
  // Bounded pass over the already-reserved accumulator; the gather loop
  // above is where the hop's unbounded work (and polling) lives.
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
  PollStrideController poller;
  for (size_t j = 0; j < middles.size(); ++j) {
    if (j > 0 && poller.ShouldPoll(j)) {
      HETESIM_RETURN_NOT_OK(ctx.CheckAlive());
    }
    const double um = weights[j];
    const auto targets = index.by_middle.RowIndices(middles[j]);
    const auto values = index.by_middle.RowValues(middles[j]);
    for (size_t i = 0; i < targets.size(); ++i) {
      scores[static_cast<size_t>(targets[i])] += um * values[i];
    }
  }
  if (!normalized) return scores;
  double norm_squared = 0.0;
  for (double w : weights) norm_squared += w * w;
  const double nu = std::sqrt(norm_squared);
  if (nu == 0.0) {
    // The source reaches no middle object: relevance is 0 to everything
    // (the paper's O(s|R1) = empty convention).
    std::fill(scores.begin(), scores.end(), 0.0);
    return scores;
  }
  // One division per target of the answer row; the scatter above polls.
  for (size_t t = 0; t < num_targets; ++t) {
    const double nt = index.norms[t];
    if (nt != 0.0) scores[t] /= nu * nt;
  }
  return scores;
}

Result<TopKResult> ScatterTopK(const TargetIndex& index,
                               std::span<const Index> middles,
                               std::span<const double> weights, int k,
                               bool normalized, const QueryContext& ctx) {
  TraceSpan span(ctx.trace(), "topk.query");
  if (span.active()) span.Annotate("k", std::to_string(k));
  Stopwatch stopwatch;
  Result<TopKResult> result =
      ScatterTopKTraced(index, middles, weights, k, normalized, ctx);
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

double SparseDot(const SparseVector& a, const SparseVector& b) {
  double sum = 0.0;
  size_t i = 0;
  size_t j = 0;
  while (i < a.indices.size() && j < b.indices.size()) {
    if (a.indices[i] < b.indices[j]) {
      ++i;
    } else if (a.indices[i] > b.indices[j]) {
      ++j;
    } else {
      sum += a.values[i] * b.values[j];
      ++i;
      ++j;
    }
  }
  return sum;
}

double SparseNorm2(const SparseVector& a) {
  double sum = 0.0;
  for (double v : a.values) sum += v * v;
  return std::sqrt(sum);
}

}  // namespace hetesim
