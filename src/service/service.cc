#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "hin/metapath.h"
#include "matrix/cost_model.h"
#include "matrix/sparse.h"

namespace hetesim::service {
namespace {

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

ResponseOutcome OutcomeFromStatus(const Status& status) {
  if (status.ok()) return ResponseOutcome::kOk;
  if (status.IsDeadlineExceeded()) return ResponseOutcome::kDeadlineExceeded;
  if (status.IsCancelled()) return ResponseOutcome::kCancelled;
  return ResponseOutcome::kError;
}

QueryResponse FailureResponse(const QueryRequest& request, const Status& status) {
  QueryResponse response;
  response.id = request.id;
  response.outcome = OutcomeFromStatus(status);
  response.status_code = status.code();
  response.message = std::string(status.message());
  return response;
}

}  // namespace

// ---------------------------------------------------------------------------
// PendingQuery

const QueryResponse& PendingQuery::Wait() const {
  MutexLock lock(mutex_);
  while (!done_) cond_.Wait(mutex_);
  return response_;
}

bool PendingQuery::WaitForMs(int64_t ms) const {
  const auto deadline = Clock::now() + std::chrono::milliseconds(ms);
  MutexLock lock(mutex_);
  while (!done_) {
    if (!cond_.WaitUntil(mutex_, deadline)) return done_;
  }
  return true;
}

bool PendingQuery::done() const {
  MutexLock lock(mutex_);
  return done_;
}

void PendingQuery::Complete(QueryResponse response) {
  MutexLock lock(mutex_);
  if (done_) return;
  response_ = std::move(response);
  done_ = true;
  cond_.NotifyAll();
}

// ---------------------------------------------------------------------------
// QueryService

QueryService::QueryService(const HinGraph& graph, const ServiceOptions& options)
    : graph_(graph), options_(options) {}

std::unique_ptr<QueryService> QueryService::Create(const HinGraph& graph,
                                                   const ServiceOptions& options) {
  // make_unique needs a public constructor; the service is assembled in
  // place instead.
  std::unique_ptr<QueryService> service(
      new QueryService(graph, options));  // hetesim-lint: allow(no-naked-new)
  if (options.memory_mb > 0) {
    service->budget_ =
        std::make_shared<MemoryBudget>(options.memory_mb * 1024 * 1024);
  }
  if (options.cache_enabled) {
    service->cache_ = std::make_shared<PathMatrixCache>();
    if (service->budget_ != nullptr) {
      service->cache_->SetMemoryBudget(service->budget_);
    }
    if (options.store != nullptr) {
      service->cache_->AttachStore(options.store);
    }
  }
  service->engine_ = std::make_unique<HeteSimEngine>(graph, options.engine,
                                                     service->cache_);
  service->engine_uncached_ =
      std::make_unique<HeteSimEngine>(graph, options.engine, nullptr);
  service->admission_ = std::make_unique<AdmissionController>(
      options.admission, service->budget_.get());
  const int workers = std::max(1, options.admission.workers);
  service->pool_ = std::make_unique<ThreadPool>(workers);
  return service;
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::Shutdown() {
  std::vector<std::shared_ptr<PendingQuery>> inflight;
  {
    MutexLock lock(mutex_);
    if (shutdown_) return;
    shutdown_ = true;
    inflight.assign(inflight_.begin(), inflight_.end());
  }
  for (const auto& pending : inflight) pending->Cancel();
  // Destroying the pool drains remaining tasks; each completes its
  // PendingQuery (as cancelled) on the way out, so no client wedges.
  pool_.reset();
}

double QueryService::EstimateFlops(const MetaPath& path,
                                   const QueryRequest& request) const {
  // Fold the cost model over the path's steps the way the planner would
  // materialize the transition chain left-to-right: one row of the chain
  // cost approximates a single-source walk. Row normalization keeps a step
  // adjacency's shape and fill, so the adjacencies stand in for the
  // transitions.
  double row_flops = 0;
  if (path.length() > 0) {
    const SparseMatrix& first = graph_.StepAdjacency(path.StepAt(0));
    MatrixEstimate acc = EstimateOf(first);
    double flops = 0;
    for (int i = 1; i < path.length(); ++i) {
      const MatrixEstimate next = EstimateOf(graph_.StepAdjacency(path.StepAt(i)));
      flops += EstimateProductFlops(acc, next);
      acc = EstimateProduct(acc, next);
    }
    row_flops = flops / static_cast<double>(std::max<Index>(1, first.rows()));
  }
  // Floor: even a trivial query costs dispatch + one propagation step.
  constexpr double kMinFlops = 1e3;
  switch (request.kind) {
    case QueryKind::kPair:
      // Left and right single-row propagations plus one dot product.
      return std::max(kMinFlops, 2.0 * row_flops);
    case QueryKind::kSingleSource:
      // One left propagation paired against every target row.
      return std::max(kMinFlops,
                      2.0 * row_flops +
                          8.0 * static_cast<double>(
                                    graph_.NumNodes(path.TargetType())));
    case QueryKind::kTopK:
      // On resident halves a query is one scatter over the candidate set;
      // a first touch's materialization is charged via the ladder's
      // calibration, not per query.
      return std::max(kMinFlops, 2.0 * row_flops);
  }
  return kMinFlops;
}

size_t QueryService::EstimateBytes(const MetaPath& path,
                                   const QueryRequest& request) const {
  // Transient per-query working set held for the whole run: response
  // buffers and scratch. Deliberately coarse — the point is that thousands
  // of queued queries visibly pressure the budget. A single-source or top-k
  // query's dense score row is not included: the query reserves it on the
  // same budget while it runs (`ScatterRow`, `ScatterTopK`).
  constexpr size_t kBaseBytes = 16 << 10;
  if (request.kind != QueryKind::kTopK) return kBaseBytes;
  // A response never holds more items than there are targets, whatever `k`
  // the wire carried.
  return kBaseBytes +
         static_cast<size_t>(std::min<Index>(std::max(0, request.k),
                                             graph_.NumNodes(path.TargetType()))) *
             sizeof(Scored);
}

std::shared_ptr<PendingQuery> QueryService::CompleteNow(QueryResponse response) {
  auto pending = std::make_shared<PendingQuery>();
  RecordCompletion(response);
  pending->Complete(std::move(response));
  return pending;
}

void QueryService::RecordCompletion(const QueryResponse& response) {
  MutexLock lock(mutex_);
  ++completed_;
  if (response.served()) ++served_;
  if (response.outcome == ResponseOutcome::kDegraded) ++degraded_;
}

std::shared_ptr<PendingQuery> QueryService::Submit(const QueryRequest& request) {
  const Clock::time_point submit_time = Clock::now();

  bool shutting_down = false;
  {
    MutexLock lock(mutex_);
    shutting_down = shutdown_;
  }
  if (shutting_down) {
    QueryResponse response;
    response.id = request.id;
    response.outcome = ResponseOutcome::kShed;
    response.degradation = DegradationLevel::kFastReject;
    response.status_code = StatusCode::kFailedPrecondition;
    response.message = "service shutting down";
    return CompleteNow(std::move(response));
  }

  // Validate the request shape before spending anything. The path is
  // parsed per request: the shared cache is the service's only query state.
  Result<MetaPath> path_or = MetaPath::Parse(graph_.schema(), request.path);
  if (!path_or.ok()) {
    return CompleteNow(FailureResponse(request, path_or.status()));
  }
  MetaPath path = std::move(*path_or);
  if (request.kind == QueryKind::kTopK && request.k <= 0) {
    return CompleteNow(FailureResponse(
        request, Status::InvalidArgument("top-k request needs k > 0")));
  }

  // Admission pipeline — synchronous, before any compute is queued.
  const double flops = EstimateFlops(path, request);
  const AdmissionDecision decision = admission_->Admit(
      request.tenant, flops, request.deadline_ms, submit_time);
  if (!decision.admitted) {
    QueryResponse response;
    response.id = request.id;
    response.outcome = decision.reject_outcome;
    response.degradation = DegradationLevel::kFastReject;
    response.status_code = StatusCode::kResourceExhausted;
    response.message = decision.reason;
    response.retry_after_ms = decision.retry_after_ms;
    return CompleteNow(std::move(response));
  }

  // Reserve the query's transient working set up front. From here on the
  // admission charge and the reservation MUST be released on every exit
  // path — both live in the completion closure below, which the pool is
  // guaranteed to run (Submit never drops tasks; shutdown drains).
  MemoryReservation reservation;
  const size_t bytes = EstimateBytes(path, request);
  bool reserve_failed = HETESIM_FAULT_POINT("service.admit.alloc");
  if (!reserve_failed && budget_ != nullptr) {
    if (budget_->TryReserve(bytes)) {
      reservation = MemoryReservation(budget_.get(), bytes);
    } else {
      reserve_failed = true;
    }
  }
  if (reserve_failed) {
    admission_->Finish(flops, 0, Clock::now());
    QueryResponse response;
    response.id = request.id;
    response.outcome = ResponseOutcome::kShed;
    response.degradation = DegradationLevel::kFastReject;
    response.status_code = StatusCode::kResourceExhausted;
    response.message = "memory reservation failed";
    response.retry_after_ms = std::max(1.0, decision.estimated_wait_ms);
    return CompleteNow(std::move(response));
  }

  auto pending = std::make_shared<PendingQuery>();
  bool lost_shutdown_race = false;
  {
    MutexLock lock(mutex_);
    if (shutdown_) {
      // Lost the race with Shutdown: the pool may already be draining, so
      // refuse instead of enqueueing into a dying executor.
      lost_shutdown_race = true;
    } else {
      inflight_.insert(pending);
    }
  }
  if (lost_shutdown_race) {
    admission_->Finish(flops, 0, Clock::now());
    QueryResponse response;
    response.id = request.id;
    response.outcome = ResponseOutcome::kShed;
    response.degradation = DegradationLevel::kFastReject;
    response.status_code = StatusCode::kFailedPrecondition;
    response.message = "service shutting down";
    RecordCompletion(response);
    pending->Complete(std::move(response));
    return pending;
  }

  QueryContext ctx = QueryContext::Background().WithCancel(pending->token_);
  if (request.deadline_ms > 0) {
    ctx = ctx.WithDeadline(submit_time +
                           std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   request.deadline_ms)));
  }
  if (budget_ != nullptr) ctx = ctx.WithBudget(budget_.get());

  // ThreadPool::Submit takes a copyable std::function; the move-only
  // reservation rides in a shared_ptr. Either way exactly one closure
  // instance runs and releases it.
  auto shared_reservation =
      std::make_shared<MemoryReservation>(std::move(reservation));
  pool_->Submit([this, request, path = std::move(path), pending,
                 reservation = std::move(shared_reservation), flops, ctx,
                 level = decision.level, submit_time]() mutable {
    const Clock::time_point start = Clock::now();
    QueryResponse response = Run(request, path, level, ctx);
    const Clock::time_point end = Clock::now();
    response.id = request.id;
    response.queue_ms = MsBetween(submit_time, start);
    response.exec_ms = MsBetween(start, end);
    // Order matters: release the reservation before Finish so the
    // admission controller's next memory-pressure reading sees it gone.
    reservation->reset();
    admission_->Finish(flops, response.served() ? (response.exec_ms / 1e3) : 0,
                       end);
    RecordCompletion(response);
    {
      MutexLock lock(mutex_);
      inflight_.erase(pending);
    }
    pending->Complete(std::move(response));
  });
  return pending;
}

QueryResponse QueryService::Execute(const QueryRequest& request) {
  return Submit(request)->Wait();
}

QueryResponse QueryService::Run(const QueryRequest& request, const MetaPath& path,
                                DegradationLevel level,
                                const QueryContext& ctx) {
  QueryResponse response;
  response.id = request.id;
  response.degradation = level;

  if (Status alive = ctx.CheckAlive(); !alive.ok()) {
    return FailureResponse(request, alive);
  }

  // The kUncached level routes pair/single-source queries around the
  // shared cache so an overloaded service stops churning (and growing) it;
  // top-k stays on the cached engine, whose resident halves make it a
  // scatter instead of a fresh right-half product per query.
  const HeteSimEngine& engine =
      (level == DegradationLevel::kUncached && request.kind != QueryKind::kTopK)
          ? *engine_uncached_
          : *engine_;

  switch (request.kind) {
    case QueryKind::kPair: {
      Result<std::vector<double>> scores = engine.ComputePairs(
          path, {{request.source, request.target}}, ctx);
      if (!scores.ok()) return FailureResponse(request, scores.status());
      response.scores = std::move(*scores);
      break;
    }
    case QueryKind::kSingleSource: {
      Result<std::vector<double>> scores =
          engine.ComputeSingleSource(path, request.source, ctx);
      if (!scores.ok()) return FailureResponse(request, scores.status());
      if (Status alive = ctx.CheckAlive(); !alive.ok()) {
        return FailureResponse(request, alive);
      }
      response.scores = std::move(*scores);
      break;
    }
    case QueryKind::kTopK: {
      QueryContext query_ctx = ctx;
      if (level == DegradationLevel::kTruncatedTopK &&
          options_.truncate_slice_ms > 0) {
        const auto slice =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double, std::milli>(
                                   options_.truncate_slice_ms));
        const auto deadline = ctx.deadline();
        query_ctx = ctx.WithDeadline(
            deadline.has_value() ? std::min(*deadline, slice) : slice);
      }
      // The slice bounds the whole query, a first touch's half products
      // included, not only the scatter.
      Result<TopKResult> result =
          engine.ComputeTopK(path, request.source, request.k, query_ctx);
      if (!result.ok()) return FailureResponse(request, result.status());
      response.truncated = result->truncated;
      response.items = std::move(result->items);
      break;
    }
  }
  response.outcome = level == DegradationLevel::kFull ? ResponseOutcome::kOk
                                                      : ResponseOutcome::kDegraded;
  response.status_code = StatusCode::kOk;
  return response;
}

ServiceStats QueryService::stats() const {
  ServiceStats stats;
  stats.admission = admission_->stats();
  stats.flops_per_second = admission_->flops_per_second();
  if (budget_ != nullptr) {
    stats.memory_used_bytes = budget_->used_bytes();
    stats.memory_peak_bytes = budget_->peak_bytes();
  }
  MutexLock lock(mutex_);
  stats.completed = completed_;
  stats.served = served_;
  stats.degraded = degraded_;
  return stats;
}

size_t QueryService::MemoryUsedBytes() const {
  return budget_ != nullptr ? budget_->used_bytes() : 0;
}

}  // namespace hetesim::service
