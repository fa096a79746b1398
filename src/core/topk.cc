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
  Counter& bound_exits;
  Histogram& latency;
};

TopKMetrics& GlobalTopKMetrics() {
  static TopKMetrics metrics{
      MetricsRegistry::Global().GetCounter("hetesim_topk_queries_total"),
      MetricsRegistry::Global().GetCounter("hetesim_topk_truncated_total"),
      MetricsRegistry::Global().GetCounter("hetesim_topk_bound_exits_total"),
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
  const Index num_sources = graph.NumNodes(path.SourceType());
  for (Index s = 0; s < num_sources; ++s) {
    // Request one extra so a skipped diagonal hit cannot starve the pool.
    HETESIM_ASSIGN_OR_RETURN(TopKResult result, searcher.Query(s, k + 1));
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

void TopKSearcher::FinishPreparation() {
  right_transpose_ = right_->Transpose();
  right_norms_.resize(static_cast<size_t>(right_->rows()));
  max_right_norm_ = 0.0;
  for (Index t = 0; t < right_->rows(); ++t) {
    right_norms_[static_cast<size_t>(t)] = right_->RowNorm(t);
    max_right_norm_ = std::max(max_right_norm_, right_norms_[static_cast<size_t>(t)]);
  }
}

Result<TopKSearcher> TopKSearcher::Prepare(const HinGraph& graph,
                                           const MetaPath& path,
                                           HeteSimOptions options,
                                           const QueryContext& ctx,
                                           PathMatrixCache* cache) {
  TraceSpan span(ctx.trace(), "topk.prepare");
  TopKSearcher searcher(graph, options, graph.NumNodes(path.SourceType()));
  PathDecomposition decomposition = DecomposePath(graph, path);
  searcher.left_transitions_ = std::move(decomposition.left_transitions);
  if (cache != nullptr) {
    // Ad-hoc path: serve (and retain) the right half through the cache,
    // folding the cheapest cached partial products on a miss.
    HETESIM_ASSIGN_OR_RETURN(
        searcher.right_,
        cache->GetRightWithReuse(graph, path, ctx, options.num_threads));
    if (options.algo == RelevanceAlgo::kFrontier) {
      FrontierChain plan = PlanFrontierChain(searcher.left_transitions_, path,
                                             /*left_side=*/true, cache);
      searcher.left_head_ = plan.head;
      searcher.left_head_steps_ = plan.head_steps;
    }
  } else {
    HETESIM_ASSIGN_OR_RETURN(
        SparseMatrix right,
        MultiplyChain(decomposition.right_transitions, options.num_threads, ctx));
    searcher.right_ = std::make_shared<const SparseMatrix>(std::move(right));
  }
  searcher.FinishPreparation();
  HETESIM_RETURN_NOT_OK(ctx.CheckAlive());
  return searcher;
}

Result<std::vector<double>> TopKSearcher::SourceDistribution(Index source) const {
  if (source < 0 || source >= num_sources_) {
    return Status::OutOfRange("source id out of range");
  }
  std::vector<double> u(static_cast<size_t>(num_sources_), 0.0);
  u[static_cast<size_t>(source)] = 1.0;
  return VectorThroughChain(std::move(u), left_transitions_);
}

Result<TopKResult> TopKSearcher::Query(Index source, int k,
                                       const QueryContext& ctx) const {
  TraceSpan span(ctx.trace(), "topk.query");
  if (span.active()) {
    span.Annotate("source", std::to_string(source));
    span.Annotate("k", std::to_string(k));
  }
  if (span.active()) span.Annotate("algo", AlgoName(options_.algo));
  Stopwatch stopwatch;
  Result<TopKResult> result = QueryTraced(source, k, ctx);
  if (MetricsEnabled()) {
    TopKMetrics& metrics = GlobalTopKMetrics();
    metrics.queries.Increment();
    metrics.latency.Observe(stopwatch.ElapsedSeconds());
    if (result.ok() && result->truncated) metrics.truncated.Increment();
    if (result.ok() && result->bound_exit) metrics.bound_exits.Increment();
  }
  if (span.active()) {
    if (!result.ok()) {
      span.Annotate("status",
                    std::string(StatusCodeToString(result.status().code())));
    } else if (result->truncated) {
      span.Annotate("truncated", "true");
    } else if (result->bound_exit) {
      span.Annotate("bound_exit", "true");
    }
  }
  return result;
}

Result<TopKResult> TopKSearcher::QueryTraced(Index source, int k,
                                             const QueryContext& ctx) const {
  // The `--algo` ablation switch. Exhaustive is the dense reference;
  // frontier hands off to the sparse executor (core/frontier.h); the
  // pruned accumulation below remains the default.
  if (options_.algo == RelevanceAlgo::kExhaustive) {
    return QueryExhaustive(source, k);
  }
  if (options_.algo == RelevanceAlgo::kFrontier) {
    if (source < 0 || source >= num_sources_) {
      return Status::OutOfRange("source id out of range");
    }
    FrontierChain left;
    left.steps = &left_transitions_;
    left.head = left_head_;
    left.head_steps = left_head_steps_;
    left.used_cached_partial = left_head_ != nullptr;
    FrontierExecutor executor(std::move(left), right_.get(),
                              &right_transpose_, &right_norms_,
                              max_right_norm_, options_);
    return executor.TopK(source, k, ctx);
  }
  // Deliberately no up-front CheckAlive: a query whose deadline has already
  // passed still produces a well-formed *partial* result (one poll stride of
  // accumulation, truncation marker set) rather than an error — the
  // documented best-effort contract. Invalid arguments still fail below.
  HETESIM_ASSIGN_OR_RETURN(std::vector<double> u, SourceDistribution(source));
  const double nu = Norm2(u);
  TopKResult result;
  result.middle_total = static_cast<Index>(u.size());
  if (nu == 0.0) {
    // Source reaches nothing: the empty answer is complete, not truncated.
    result.middle_processed = result.middle_total;
    return result;
  }
  // Accumulate scores only for targets that share a middle object with u.
  // `right_transpose_` maps each middle object to the targets reaching it.
  // The context is polled once per stride (adaptive by default, pinned via
  // `topk_poll_stride`): an expired deadline (or a cancellation) stops the
  // accumulation and the partial scores are ranked and returned with the
  // truncation marker set, so the caller always gets a best-effort answer
  // within one stride of the deadline.
  PollStrideController poller(options_.topk_poll_stride);
  std::vector<double> scores(static_cast<size_t>(right_->rows()), 0.0);
  std::vector<Index> touched;
  size_t processed = u.size();
  for (size_t m = 0; m < u.size(); ++m) {
    if (m > 0 && poller.ShouldPoll(m) && ctx.Expired()) {
      result.truncated = true;
      processed = m;
      break;
    }
    const double um = u[m];
    if (um == 0.0) continue;
    auto targets = right_transpose_.RowIndices(static_cast<Index>(m));
    auto weights = right_transpose_.RowValues(static_cast<Index>(m));
    for (size_t j = 0; j < targets.size(); ++j) {
      if (scores[static_cast<size_t>(targets[j])] == 0.0) touched.push_back(targets[j]);
      scores[static_cast<size_t>(targets[j])] += um * weights[j];
    }
  }
  result.middle_processed = static_cast<Index>(processed);
  result.candidates_examined = static_cast<Index>(touched.size());
  std::vector<Scored> candidates;
  candidates.reserve(touched.size());
  // Bounded normalize-and-collect pass; the middle sweep above polls.
  for (Index t : touched) {  // hetesim-lint: allow(cancel-poll)
    double s = scores[static_cast<size_t>(t)];
    if (options_.normalized) {
      const double nt = right_norms_[static_cast<size_t>(t)];
      if (nt != 0.0) s /= nu * nt;
    }
    if (s != 0.0) candidates.push_back({t, s});
  }
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
  HETESIM_ASSIGN_OR_RETURN(std::vector<double> u, SourceDistribution(source));
  const double nu = Norm2(u);
  std::vector<double> scores = right_->MultiplyVector(u);
  if (options_.normalized && nu != 0.0) {
    for (size_t t = 0; t < scores.size(); ++t) {
      const double nt = right_norms_[t];
      if (nt != 0.0) scores[t] /= nu * nt;
    }
  }
  TopKResult result;
  result.candidates_examined = right_->rows();
  result.items = TopK(scores, k);
  return result;
}

}  // namespace hetesim
