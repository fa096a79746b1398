#include "core/hetesim.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <utility>

#include "common/metrics.h"
#include "common/parallel.h"
#include "common/stopwatch.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "core/frontier.h"
#include "core/materialize.h"
#include "matrix/chain_plan.h"
#include "matrix/cost_model.h"
#include "matrix/ops.h"
#include "matrix/spgemm.h"

namespace hetesim {

namespace {

/// End-to-end query instruments (DESIGN.md §12). One `queries` increment
/// and one latency observation per `Compute` or `ComputePairs` call;
/// terminal statuses split into cancelled / deadline-exceeded /
/// other-failed so dashboards separate caller-initiated stops from real
/// errors.
struct EngineMetrics {
  Counter& queries;
  Counter& cancelled;
  Counter& deadline_exceeded;
  Counter& failed;
  Histogram& latency;
};

EngineMetrics& GlobalEngineMetrics() {
  static EngineMetrics metrics{
      MetricsRegistry::Global().GetCounter("hetesim_engine_queries_total"),
      MetricsRegistry::Global().GetCounter("hetesim_engine_cancelled_total"),
      MetricsRegistry::Global().GetCounter(
          "hetesim_engine_deadline_exceeded_total"),
      MetricsRegistry::Global().GetCounter("hetesim_engine_failed_total"),
      MetricsRegistry::Global().GetHistogram(
          "hetesim_engine_query_latency_seconds",
          DefaultLatencyBoundariesSeconds()),
  };
  return metrics;
}

/// Shared epilogue for the instrumented entry points: one query counted,
/// latency observed, terminal status classified, and the span annotated
/// with the outcome (cancellation/truncation markers ride on the span).
void RecordQueryOutcome(TraceSpan& span, const Status& status,
                        double elapsed_seconds) {
  if (MetricsEnabled()) {
    EngineMetrics& metrics = GlobalEngineMetrics();
    metrics.queries.Increment();
    metrics.latency.Observe(elapsed_seconds);
    if (status.IsCancelled()) {
      metrics.cancelled.Increment();
    } else if (status.IsDeadlineExceeded()) {
      metrics.deadline_exceeded.Increment();
    } else if (!status.ok()) {
      metrics.failed.Increment();
    }
  }
  if (span.active() && !status.ok()) {
    span.Annotate("status", std::string(StatusCodeToString(status.code())));
    if (status.IsCancelled()) span.Annotate("cancelled", "true");
    if (status.IsDeadlineExceeded()) span.Annotate("deadline_exceeded", "true");
  }
}

/// `InvalidArgument` for a path parsed against another schema than
/// `graph`'s, or `OutOfRange` when `source` is not a node of the path's
/// source type.
Status CheckSource(const HinGraph& graph, const MetaPath& path, Index source) {
  if (&path.schema() != &graph.schema()) {
    return Status::InvalidArgument(
        "meta-path was parsed against a different schema object");
  }
  const Index num_sources = graph.NumNodes(path.SourceType());
  if (source < 0 || source >= num_sources) {
    return Status::OutOfRange(StrFormat(
        "source id %lld out of range [0, %lld) for type '%s'",
        static_cast<long long>(source), static_cast<long long>(num_sources),
        graph.schema().TypeName(path.SourceType()).c_str()));
  }
  return Status::OK();
}

/// `path`'s decomposition for a query. A symmetric path (its own reverse)
/// walks one chain on both sides, so only its right half is decomposed.
PathDecomposition DecomposeForQuery(const HinGraph& graph, const MetaPath& path,
                                    bool symmetric) {
  if (!symmetric) return DecomposePath(graph, path);
  PathDecomposition decomposition;
  decomposition.right_transitions = DecomposeHalf(graph, path, /*left_side=*/false);
  return decomposition;
}

/// The cached single-source plan's inputs: the path's cached left half,
/// whose row for the source is scattered, and its right half's shared
/// `TargetIndex` (DESIGN.md §14).
struct CachedPlan {
  std::shared_ptr<const SparseMatrix> left;
  std::shared_ptr<const TargetIndex> index;
};

Result<CachedPlan> LookUpCachedPlan(PathMatrixCache& cache, const HinGraph& graph,
                                    const MetaPath& path, const QueryContext& ctx,
                                    int num_threads) {
  CachedPlan plan;
  HETESIM_ASSIGN_OR_RETURN(plan.left, cache.GetLeft(graph, path, ctx, num_threads));
  HETESIM_ASSIGN_OR_RETURN(plan.index,
                           cache.GetTargetIndex(graph, path, ctx, num_threads));
  return plan;
}

/// The cache-less single-source answer, shared by single-source and top-k:
/// one row over every target, cosine-normalized per Definition 10 when
/// `options.normalized`. `reservation` charges the dense frontier and the
/// row to the query's budget for as long as the row is held.
struct OneShotRow {
  MemoryReservation reservation;
  std::vector<double> scores;
  /// Middle objects the source's propagated frontier reaches.
  Index middles = 0;
};

/// The one-shot plan (DESIGN.md §14): `source`'s frontier is propagated
/// through the left half's transitions (through the right half's on a
/// symmetric path), densified over the middle type and multiplied into the
/// computed right half, so only that half is multiplied.
Result<OneShotRow> ComputeOneShotRow(const HinGraph& graph,
                                     const HeteSimOptions& options,
                                     const MetaPath& path, Index source,
                                     const QueryContext& ctx) {
  const bool symmetric = path == path.Reverse();
  const PathDecomposition decomposition = DecomposeForQuery(graph, path, symmetric);
  HETESIM_ASSIGN_OR_RETURN(
      const SparseVector frontier,
      PropagateFrontier(source,
                        symmetric ? decomposition.right_transitions
                                  : decomposition.left_transitions,
                        options.truncation, ctx));
  HETESIM_ASSIGN_OR_RETURN(const SparseMatrix right,
                           RightReachMatrix(decomposition, options.num_threads, ctx));
  const size_t num_middle = static_cast<size_t>(right.cols());
  OneShotRow row;
  row.middles = static_cast<Index>(frontier.nnz());
  HETESIM_ASSIGN_OR_RETURN(
      row.reservation,
      ctx.Reserve((num_middle + static_cast<size_t>(right.rows())) * sizeof(double)));
  std::vector<double> u(num_middle, 0.0);
  for (size_t i = 0; i < frontier.nnz(); ++i) {
    u[static_cast<size_t>(frontier.indices[i])] = frontier.values[i];
  }
  // scores[t] = u . PM_R(t,:), then cosine-normalize per Definition 10.
  row.scores = right.MultiplyVector(u);
  if (!options.normalized) return row;
  const double nu = Norm2(u);
  if (nu == 0.0) {
    // Source cannot reach the middle type at all: relevance is 0 to
    // everything (the paper's O(s|R1) = empty convention).
    std::fill(row.scores.begin(), row.scores.end(), 0.0);
    return row;
  }
  // One pass over the answer row, dividing only its nonzero entries (a zero
  // stays zero); the propagation and the right half poll.
  for (Index t = 0; t < right.rows(); ++t) {  // hetesim-lint: allow(cancel-poll)
    double& score = row.scores[static_cast<size_t>(t)];
    if (score == 0.0) continue;
    const double nt = right.RowNorm(t);
    if (nt != 0.0) score /= nu * nt;
  }
  return row;
}

}  // namespace

HeteSimEngine::HeteSimEngine(const HinGraph& graph, HeteSimOptions options,
                             std::shared_ptr<PathMatrixCache> cache)
    : graph_(graph), options_(options), cache_(std::move(cache)) {}

Status HeteSimEngine::GetHalves(
    const MetaPath& path, const QueryContext& ctx,
    std::shared_ptr<const SparseMatrix>* left,
    std::shared_ptr<const SparseMatrix>* right) const {
  if (cache_ != nullptr) {
    HETESIM_ASSIGN_OR_RETURN(*left,
                             cache_->GetLeft(graph_, path, ctx, options_.num_threads));
    HETESIM_ASSIGN_OR_RETURN(*right,
                             cache_->GetRight(graph_, path, ctx, options_.num_threads));
    return Status::OK();
  }
  // A symmetric path (its own reverse) has equal halves: the right one is
  // multiplied once and serves as both.
  const bool symmetric = path == path.Reverse();
  const PathDecomposition decomposition = DecomposeForQuery(graph_, path, symmetric);
  HETESIM_ASSIGN_OR_RETURN(SparseMatrix computed_right,
                           RightReachMatrix(decomposition, options_.num_threads, ctx));
  *right = std::make_shared<const SparseMatrix>(std::move(computed_right));
  if (symmetric) {
    *left = *right;
    return Status::OK();
  }
  HETESIM_ASSIGN_OR_RETURN(SparseMatrix computed_left,
                           LeftReachMatrix(decomposition, options_.num_threads, ctx));
  *left = std::make_shared<const SparseMatrix>(std::move(computed_left));
  return Status::OK();
}

Result<DenseMatrix> HeteSimEngine::Compute(const MetaPath& path,
                                           const QueryContext& ctx) const {
  TraceSpan span(ctx.trace(), "engine.compute");
  if (span.active()) span.Annotate("path", path.ToString());
  Stopwatch stopwatch;
  Result<DenseMatrix> result = ComputeTraced(path, ctx, span);
  RecordQueryOutcome(span, result.ok() ? Status::OK() : result.status(),
                     stopwatch.ElapsedSeconds());
  return result;
}

Result<DenseMatrix> HeteSimEngine::ComputeTraced(const MetaPath& path,
                                                 const QueryContext& ctx,
                                                 TraceSpan& span) const {
  if (&path.schema() != &graph_.schema()) {
    return Status::InvalidArgument(
        "meta-path was parsed against a different schema object");
  }
  std::shared_ptr<const SparseMatrix> left_half;
  std::shared_ptr<const SparseMatrix> right_half;
  {
    TraceSpan reach_span(ctx.trace(), "engine.reach_matrices");
    HETESIM_RETURN_NOT_OK(GetHalves(path, ctx, &left_half, &right_half));
  }
  const SparseMatrix& left = *left_half;
  const SparseMatrix& right = *right_half;
  // Equation 6: HeteSim(A1, A(l+1) | P) = PM_PL * PM_(PR^-1)'. Relevance
  // matrices of connected networks are dense, so when the cost model
  // predicts densification the product is accumulated directly into the
  // dense score matrix (skipping CSR assembly of a near-full matrix);
  // otherwise the adaptive sparse kernel runs and the result is densified.
  // Both kernels accumulate in the seed Gustavson order, so scores are
  // bitwise identical either way and at any thread count.
  const SparseMatrix right_t = right.Transpose();
  DenseMatrix scores;
  const MatrixEstimate product_estimate =
      EstimateProduct(EstimateOf(left), EstimateOf(right_t));
  const bool dense_product =
      product_estimate.Density() >= ChainPlanOptions().dense_switch_density;
  if (span.active()) {
    span.Annotate("product_kernel", dense_product ? "dense" : "spgemm");
  }
  {
    TraceSpan product_span(ctx.trace(), "engine.product");
    if (dense_product) {
      HETESIM_ASSIGN_OR_RETURN(
          scores,
          MultiplySparseSparseDense(left, right_t, options_.num_threads, ctx));
    } else {
      HETESIM_ASSIGN_OR_RETURN(
          SparseMatrix product,
          MultiplySparseAdaptive(left, right_t, options_.num_threads, ctx));
      scores = product.ToDense();
    }
  }
  if (!options_.normalized) return scores;
  TraceSpan normalize_span(ctx.trace(), "engine.normalize");
  // Definition 10: divide entry (a, b) by |PM_PL(a,:)| * |PM_(PR^-1)(b,:)|.
  std::vector<double> left_norms(static_cast<size_t>(left.rows()));
  for (Index a = 0; a < left.rows(); ++a) left_norms[static_cast<size_t>(a)] = left.RowNorm(a);
  std::vector<double> right_norms(static_cast<size_t>(right.rows()));
  for (Index b = 0; b < right.rows(); ++b) right_norms[static_cast<size_t>(b)] = right.RowNorm(b);
  SharedStatus region_status;
  ParallelFor(
      0, scores.rows(), options_.num_threads,
      [&](int64_t row_begin, int64_t row_end) {
        // Chunk-granular liveness check: once the context dies (or another
        // chunk failed), the remaining chunks are no-ops and the region
        // drains without leaking pool tasks.
        if (!region_status.ok()) return;
        if (Status alive = ctx.CheckAlive(); !alive.ok()) {
          region_status.Update(std::move(alive));
          return;
        }
        // Chunks are cost-model sized, so the entry check above bounds the
        // time between polls.
        for (Index a = row_begin; a < row_end; ++a) {  // hetesim-lint: allow(cancel-poll)
          double* row = scores.RowData(a);
          const double na = left_norms[static_cast<size_t>(a)];
          // Skip unreachable source rows; non-finite norms (poisoned input
          // weights that escaped sanitization) degrade to 0 relevance
          // instead of propagating NaN through the whole row.
          if (na == 0.0 || !std::isfinite(na)) {
            if (!std::isfinite(na)) {
              for (Index b = 0; b < scores.cols(); ++b) row[b] = 0.0;
            }
            continue;
          }
          for (Index b = 0; b < scores.cols(); ++b) {
            const double nb = right_norms[static_cast<size_t>(b)];
            if (!std::isfinite(nb)) {
              row[b] = 0.0;
            } else if (nb != 0.0) {
              row[b] /= na * nb;
            }
          }
        }
      },
      {.cost_per_element = static_cast<double>(scores.cols())});
  HETESIM_RETURN_NOT_OK(region_status.status());
  return scores;
}

Result<std::vector<double>> HeteSimEngine::ComputeSingleSource(
    const MetaPath& path, Index source, const QueryContext& ctx) const {
  HETESIM_RETURN_NOT_OK(CheckSource(graph_, path, source));
  if (cache_ != nullptr) {
    HETESIM_ASSIGN_OR_RETURN(
        const CachedPlan plan,
        LookUpCachedPlan(*cache_, graph_, path, ctx, options_.num_threads));
    return ScatterRow(*plan.index, plan.left->RowIndices(source),
                      plan.left->RowValues(source), options_.normalized, ctx);
  }
  HETESIM_ASSIGN_OR_RETURN(OneShotRow row,
                           ComputeOneShotRow(graph_, options_, path, source, ctx));
  return std::move(row.scores);
}

Result<TopKResult> HeteSimEngine::ComputeTopK(const MetaPath& path,
                                              Index source, int k,
                                              const QueryContext& ctx) const {
  HETESIM_RETURN_NOT_OK(CheckSource(graph_, path, source));
  if (cache_ != nullptr) {
    HETESIM_ASSIGN_OR_RETURN(
        const CachedPlan plan,
        LookUpCachedPlan(*cache_, graph_, path, ctx, options_.num_threads));
    return ScatterTopK(*plan.index, plan.left->RowIndices(source),
                       plan.left->RowValues(source), k, options_.normalized, ctx);
  }
  HETESIM_ASSIGN_OR_RETURN(const OneShotRow row,
                           ComputeOneShotRow(graph_, options_, path, source, ctx));
  return RankRow(row.scores, row.middles, k, ctx);
}

Result<double> HeteSimEngine::ComputePair(const MetaPath& path, Index source,
                                          Index target, const QueryContext& ctx) const {
  HETESIM_ASSIGN_OR_RETURN(std::vector<double> scores,
                           ComputePairs(path, {{source, target}}, ctx));
  return scores[0];
}

Result<std::vector<double>> HeteSimEngine::ComputePairs(
    const MetaPath& path, const std::vector<std::pair<Index, Index>>& pairs,
    const QueryContext& ctx) const {
  TraceSpan span(ctx.trace(), "engine.compute_pairs");
  if (span.active()) {
    span.Annotate("path", path.ToString());
    span.Annotate("pairs", std::to_string(pairs.size()));
  }
  Stopwatch stopwatch;
  Result<std::vector<double>> result = ComputePairsTraced(path, pairs, ctx, span);
  RecordQueryOutcome(span, result.ok() ? Status::OK() : result.status(),
                     stopwatch.ElapsedSeconds());
  return result;
}

Result<std::vector<double>> HeteSimEngine::ComputePairsTraced(
    const MetaPath& path, const std::vector<std::pair<Index, Index>>& pairs,
    const QueryContext& ctx, TraceSpan& span) const {
  if (&path.schema() != &graph_.schema()) {
    return Status::InvalidArgument(
        "meta-path was parsed against a different schema object");
  }
  const Index num_sources = graph_.NumNodes(path.SourceType());
  const Index num_targets = graph_.NumNodes(path.TargetType());
  // O(1) range check per pair, before any compute starts.
  for (const auto& [source, target] : pairs) {  // hetesim-lint: allow(cancel-poll)
    if (source < 0 || source >= num_sources) {
      return Status::OutOfRange("source id out of range");
    }
    if (target < 0 || target >= num_targets) {
      return Status::OutOfRange("target id out of range");
    }
  }
  if (cache_ != nullptr) {
    if (span.active()) span.Annotate("mode", "cached");
    HETESIM_ASSIGN_OR_RETURN(
        std::shared_ptr<const SparseMatrix> left,
        cache_->GetLeft(graph_, path, ctx, options_.num_threads));
    HETESIM_ASSIGN_OR_RETURN(
        std::shared_ptr<const SparseMatrix> right,
        cache_->GetRight(graph_, path, ctx, options_.num_threads));
    // Each pair's score is independent, so candidate-list scoring is
    // pair-parallel on the shared pool (cost hint: one sparse row merge).
    std::vector<double> scores(pairs.size(), 0.0);
    SharedStatus region_status;
    ParallelFor(
        0, static_cast<int64_t>(pairs.size()), options_.num_threads,
        [&](int64_t pair_begin, int64_t pair_end) {
          if (!region_status.ok()) return;
          if (Status alive = ctx.CheckAlive(); !alive.ok()) {
            region_status.Update(std::move(alive));
            return;
          }
          // Chunk-granular poll at lambda entry; chunks are cost-model
          // sized.
          for (int64_t p = pair_begin; p < pair_end; ++p) {  // hetesim-lint: allow(cancel-poll)
            const auto& [source, target] = pairs[static_cast<size_t>(p)];
            scores[static_cast<size_t>(p)] = RowCosine(
                left->RowIndices(source), left->RowValues(source),
                right->RowIndices(target), right->RowValues(target),
                options_.normalized);
          }
        },
        {.cost_per_element = 64.0});
    HETESIM_RETURN_NOT_OK(region_status.status());
    return scores;
  }
  // Uncached: one decomposition; each distinct id's frontier is propagated
  // once and reused by every pair that repeats it.
  if (span.active()) span.Annotate("mode", "uncached");
  PathDecomposition decomposition = DecomposePath(graph_, path);
  std::unordered_map<Index, SparseVector> source_frontiers;
  std::unordered_map<Index, SparseVector> target_frontiers;
  auto frontier_of = [&](Index id, const std::vector<SparseMatrix>& steps,
                         std::unordered_map<Index, SparseVector>& memo)
      -> Result<const SparseVector*> {
    auto it = memo.find(id);
    if (it != memo.end()) return &it->second;
    HETESIM_ASSIGN_OR_RETURN(
        SparseVector propagated,
        PropagateFrontier(id, steps, options_.truncation, ctx));
    return &memo.emplace(id, std::move(propagated)).first->second;
  };
  std::vector<double> scores;
  scores.reserve(pairs.size());
  for (const auto& [source, target] : pairs) {
    // Each iteration propagates at most two frontiers — chunk-ish units of
    // work, so per-pair polling keeps cancellation prompt without
    // measurable cost.
    HETESIM_RETURN_NOT_OK(ctx.CheckAlive());
    HETESIM_ASSIGN_OR_RETURN(
        const SparseVector* u,
        frontier_of(source, decomposition.left_transitions, source_frontiers));
    HETESIM_ASSIGN_OR_RETURN(
        const SparseVector* v,
        frontier_of(target, decomposition.right_transitions, target_frontiers));
    scores.push_back(
        RowCosine(u->indices, u->values, v->indices, v->values, options_.normalized));
  }
  return scores;
}

Result<double> HeteSimEngine::SimRankSeries(RelationId relation, Index a1, Index a2,
                                            int depth) const {
  const Schema& schema = graph_.schema();
  if (!schema.IsValidRelation(relation)) {
    return Status::InvalidArgument("invalid relation id");
  }
  if (depth < 1) {
    return Status::InvalidArgument("depth must be >= 1");
  }
  HeteSimOptions raw_options = options_;
  raw_options.normalized = false;
  HeteSimEngine raw(graph_, raw_options, cache_);
  double total = 0.0;
  std::vector<RelationStep> steps;
  for (int k = 1; k <= depth; ++k) {
    steps.push_back({relation, /*forward=*/true});
    steps.push_back({relation, /*forward=*/false});
    HETESIM_ASSIGN_OR_RETURN(MetaPath path, MetaPath::FromSteps(schema, steps));
    HETESIM_ASSIGN_OR_RETURN(double term, raw.ComputePair(path, a1, a2));
    total += term;
  }
  return total;
}

}  // namespace hetesim
