#include "core/topk.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "common/metrics.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/frontier.h"
#include "core/materialize.h"
#include "matrix/ops.h"

namespace hetesim {

namespace {

/// Top-k query instruments (DESIGN.md §12). `truncated` counts best-effort
/// answers cut short by a deadline/cancellation — the searcher's documented
/// partial-result contract, surfaced so dashboards can tell truncation
/// pressure from plain load.
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

}  // namespace

std::vector<Scored> TopK(const std::vector<double>& scores, int k) {
  HETESIM_CHECK_GE(k, 0);
  std::vector<Scored> all;
  all.reserve(scores.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    all.push_back({static_cast<Index>(i), scores[i]});
  }
  const size_t keep = std::min(static_cast<size_t>(k), all.size());
  auto by_score_desc = [](const Scored& a, const Scored& b) {
    return a.score != b.score ? a.score > b.score : a.id < b.id;
  };
  std::partial_sort(all.begin(), all.begin() + static_cast<ptrdiff_t>(keep),
                    all.end(), by_score_desc);
  all.resize(keep);
  return all;
}

Result<std::vector<ScoredPair>> TopKPairs(const HinGraph& graph,
                                          const MetaPath& path, int k,
                                          bool exclude_diagonal,
                                          HeteSimOptions options) {
  if (k < 0) {
    return Status::InvalidArgument("k must be non-negative");
  }
  const bool same_type = path.SourceType() == path.TargetType();
  HETESIM_ASSIGN_OR_RETURN(TopKSearcher searcher,
                           TopKSearcher::Prepare(graph, path, options));
  auto by_score_desc = [](const ScoredPair& a, const ScoredPair& b) {
    if (a.score != b.score) return a.score > b.score;
    if (a.source != b.source) return a.source < b.source;
    return a.target < b.target;
  };
  // Collect each source's top-k (more than enough to fill the global k)
  // and keep the best k overall.
  std::vector<ScoredPair> best;
  // Request one extra so a skipped diagonal hit cannot starve the pool. In
  // 64 bits because `k` may be INT_MAX; no source ranks more than every
  // target, so the cap also brings the request back into `int` range.
  const int per_source = static_cast<int>(
      std::min<int64_t>(int64_t{k} + 1, searcher.num_targets()));
  const Index num_sources = graph.NumNodes(path.SourceType());
  for (Index s = 0; s < num_sources; ++s) {
    HETESIM_ASSIGN_OR_RETURN(TopKResult result, searcher.Query(s, per_source));
    for (const Scored& item : result.items) {
      if (exclude_diagonal && same_type && item.id == s) continue;
      best.push_back({s, item.id, item.score});
    }
    if (best.size() > 4 * static_cast<size_t>(k) + 16) {
      std::sort(best.begin(), best.end(), by_score_desc);
      best.resize(static_cast<size_t>(k));
    }
  }
  std::sort(best.begin(), best.end(), by_score_desc);
  if (best.size() > static_cast<size_t>(k)) best.resize(static_cast<size_t>(k));
  return best;
}

Result<TopKSearcher> TopKSearcher::Prepare(const HinGraph& graph,
                                           const MetaPath& path,
                                           HeteSimOptions options,
                                           const QueryContext& ctx,
                                           PathMatrixCache* cache) {
  TraceSpan span(ctx.trace(), "topk.prepare");
  // Without a caller's cache the halves go through a private one, which
  // computes a symmetric path's identical halves once; the searcher keeps
  // them after it is gone.
  PathMatrixCache private_cache;
  if (cache == nullptr) cache = &private_cache;
  HETESIM_ASSIGN_OR_RETURN(std::shared_ptr<const SparseMatrix> left,
                           cache->GetLeft(graph, path, ctx, options.num_threads));
  HETESIM_ASSIGN_OR_RETURN(
      std::shared_ptr<const TargetIndex> index,
      cache->GetTargetIndex(graph, path, ctx, options.num_threads));
  HETESIM_RETURN_NOT_OK(ctx.CheckAlive());
  return TopKSearcher(options.normalized, std::move(left), std::move(index));
}

Result<TopKResult> TopKSearcher::Query(Index source, int k,
                                       const QueryContext& ctx) const {
  TraceSpan span(ctx.trace(), "topk.query");
  if (span.active()) {
    span.Annotate("source", std::to_string(source));
    span.Annotate("k", std::to_string(k));
  }
  Stopwatch stopwatch;
  Result<TopKResult> result = QueryTraced(source, k, ctx);
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

Result<TopKResult> TopKSearcher::QueryTraced(Index source, int k,
                                             const QueryContext& ctx) const {
  if (source < 0 || source >= left_->rows()) {
    return Status::OutOfRange("source id out of range");
  }
  TopKResult result;
  // 1. The source's row of the left half: the middle objects it reaches.
  // Deliberately no up-front CheckAlive: a query whose deadline has already
  // passed still scatters the first poll stride and returns a well-formed
  // *partial* ranking.
  const auto middles = left_->RowIndices(source);
  const auto reach = left_->RowValues(source);
  result.middle_total = static_cast<Index>(middles.size());
  const double nu = left_->RowNorm(source);
  if (nu == 0.0) {
    // Source reaches nothing: the empty answer is complete, not truncated.
    result.middle_processed = result.middle_total;
    return result;
  }
  // 2. Scatter the row through the inverted index in ascending middle
  // order — the term order of a dense row-times-matrix product and of
  // `ScatterRow`, so scores are bitwise reproducible. A target is
  // registered on its first nonzero contribution; skipping an exact +0.0
  // (a store may keep quantized zeros) changes no score bit. On expiry the
  // partial scores are ranked and returned with the truncation marker set.
  const size_t num_targets = static_cast<size_t>(index_->num_targets());
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
    const double um = reach[j];
    const auto targets = index_->by_middle.RowIndices(middles[j]);
    const auto weights = index_->by_middle.RowValues(middles[j]);
    for (size_t i = 0; i < targets.size(); ++i) {
      const double contribution = um * weights[i];
      if (contribution == 0.0) continue;
      double& slot = scores[static_cast<size_t>(targets[i])];
      if (slot == 0.0) touched.push_back(targets[i]);
      slot += contribution;
    }
  }
  result.middle_processed = static_cast<Index>(processed);
  result.candidates_examined = static_cast<Index>(touched.size());
  // 3. Normalize (Definition 10) by the source and stored target norms.
  std::vector<Scored> candidates;
  candidates.reserve(touched.size());
  // Bounded normalize-and-collect pass; the scatter above polls.
  for (Index t : touched) {  // hetesim-lint: allow(cancel-poll)
    double s = scores[static_cast<size_t>(t)];
    if (normalized_) {
      const double nt = index_->norms[static_cast<size_t>(t)];
      if (nt != 0.0) s /= nu * nt;
    }
    if (s != 0.0) candidates.push_back({t, s});
  }
  // 4. Partial-sort the best k.
  auto by_score_desc = [](const Scored& a, const Scored& b) {
    return a.score != b.score ? a.score > b.score : a.id < b.id;
  };
  const size_t keep = std::min(static_cast<size_t>(std::max(k, 0)), candidates.size());
  std::partial_sort(candidates.begin(),
                    candidates.begin() + static_cast<ptrdiff_t>(keep),
                    candidates.end(), by_score_desc);
  candidates.resize(keep);
  result.items = std::move(candidates);
  return result;
}

Result<TopKResult> TopKSearcher::QueryExhaustive(Index source, int k) const {
  if (source < 0 || source >= left_->rows()) {
    return Status::OutOfRange("source id out of range");
  }
  const std::vector<double> u = left_->RowDense(source);
  const double nu = Norm2(u);
  std::vector<double> scores = index_->by_middle.LeftMultiplyVector(u);
  if (normalized_ && nu != 0.0) {
    for (size_t t = 0; t < scores.size(); ++t) {
      const double nt = index_->norms[t];
      if (nt != 0.0) scores[t] /= nu * nt;
    }
  }
  TopKResult result;
  result.candidates_examined = index_->num_targets();
  result.items = TopK(scores, k);
  return result;
}

}  // namespace hetesim
