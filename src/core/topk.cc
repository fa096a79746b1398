#include "core/topk.h"

#include <algorithm>

#include "common/check.h"
#include "common/trace.h"
#include "core/frontier.h"
#include "core/materialize.h"
#include "matrix/ops.h"

namespace hetesim {

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
  if (source < 0 || source >= left_->rows()) {
    return Status::OutOfRange("source id out of range");
  }
  return ScatterTopK(*index_, left_->RowIndices(source),
                     left_->RowValues(source), k, normalized_, ctx);
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
