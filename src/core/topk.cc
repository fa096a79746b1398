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
  TopKSearcher searcher(graph, options, graph.NumNodes(path.SourceType()));
  if (cache != nullptr) {
    // Ad-hoc path: share (and retain) the right half's index through the
    // cache, folding the cheapest cached partial products on a miss.
    searcher.left_transitions_ = DecomposeHalf(graph, path, /*left_side=*/true);
    HETESIM_ASSIGN_OR_RETURN(
        searcher.index_,
        cache->GetTargetIndex(graph, path, ctx, options.num_threads));
    FrontierChain plan = PlanFrontierChain(searcher.left_transitions_, path,
                                           /*left_side=*/true, cache);
    searcher.left_head_ = plan.head;
    searcher.left_head_steps_ = plan.head_steps;
  } else {
    PathDecomposition decomposition = DecomposePath(graph, path);
    searcher.left_transitions_ = std::move(decomposition.left_transitions);
    HETESIM_ASSIGN_OR_RETURN(
        SparseMatrix right,
        MultiplyChain(decomposition.right_transitions, options.num_threads, ctx));
    searcher.index_ =
        std::make_shared<const TargetIndex>(TargetIndex::Build(right));
  }
  HETESIM_RETURN_NOT_OK(ctx.CheckAlive());
  return searcher;
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
  if (source < 0 || source >= num_sources_) {
    return Status::OutOfRange("source id out of range");
  }
  TopKResult result;
  // 1. Propagate the source frontier through the left chain, from the
  // cached head when preparation found one. Deliberately no up-front
  // CheckAlive: a query whose deadline has already passed still completes
  // a propagation shorter than one poll stride and returns a well-formed
  // *partial* ranking. A deadline or cancellation inside the propagation
  // maps to an empty truncated ranking, not an error; real failures
  // (budget exhaustion, injected faults) still propagate.
  const FrontierChain left{&left_transitions_, left_head_, left_head_steps_};
  Result<SparseVector> propagated =
      PropagateFrontier(source, left, options_.truncation, ctx);
  if (!propagated.ok()) {
    const Status status = propagated.status();
    if (status.IsDeadlineExceeded() || status.IsCancelled()) {
      result.truncated = true;
      return result;
    }
    return status;
  }
  const SparseVector u = *std::move(propagated);
  result.error_bound = u.dropped_mass;
  result.middle_total = static_cast<Index>(u.nnz());
  const double nu = SparseNorm2(u);
  if (nu == 0.0) {
    // Source reaches nothing: the empty answer is complete, not truncated.
    result.middle_processed = result.middle_total;
    return result;
  }
  // 2. Scatter the frontier through the inverted index in ascending middle
  // order — the term order of a dense row-times-matrix product, so scores
  // are bitwise reproducible. On expiry the partial scores are ranked and
  // returned with the truncation marker set.
  const size_t num_targets = static_cast<size_t>(index_->num_targets());
  HETESIM_ASSIGN_OR_RETURN(
      MemoryReservation reservation,
      ctx.Reserve(num_targets * (sizeof(double) + sizeof(Index))));
  std::vector<double> scores(num_targets, 0.0);
  std::vector<Index> touched;
  PollStrideController poller;
  size_t processed = u.nnz();
  for (size_t j = 0; j < u.nnz(); ++j) {
    if (j > 0 && poller.ShouldPoll(j) && ctx.Expired()) {
      result.truncated = true;
      processed = j;
      break;
    }
    const double um = u.values[j];
    const auto targets = index_->by_middle.RowIndices(u.indices[j]);
    const auto weights = index_->by_middle.RowValues(u.indices[j]);
    for (size_t i = 0; i < targets.size(); ++i) {
      double& slot = scores[static_cast<size_t>(targets[i])];
      if (slot == 0.0) touched.push_back(targets[i]);
      slot += um * weights[i];
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
    if (options_.normalized) {
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
  if (source < 0 || source >= num_sources_) {
    return Status::OutOfRange("source id out of range");
  }
  std::vector<double> u(static_cast<size_t>(num_sources_), 0.0);
  u[static_cast<size_t>(source)] = 1.0;
  u = VectorThroughChain(std::move(u), left_transitions_);
  const double nu = Norm2(u);
  std::vector<double> scores = index_->by_middle.LeftMultiplyVector(u);
  if (options_.normalized && nu != 0.0) {
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
