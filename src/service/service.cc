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

// How often a caller waiting for an execution slot re-checks its token:
// cancelling a token wakes no one, so this bounds how long a cancelled
// waiter lingers.
constexpr std::chrono::milliseconds kSlotPollInterval{5};

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

ResponseOutcome OutcomeFromStatus(const Status& status) {
  if (status.ok()) return ResponseOutcome::kOk;
  if (status.IsDeadlineExceeded()) return ResponseOutcome::kDeadlineExceeded;
  if (status.IsCancelled()) return ResponseOutcome::kCancelled;
  return ResponseOutcome::kError;
}

QueryResponse FailureResponse(const Status& status) {
  QueryResponse response;
  response.outcome = OutcomeFromStatus(status);
  response.status_code = status.code();
  response.message = std::string(status.message());
  return response;
}

/// A request turned away before it ran.
QueryResponse Refusal(ResponseOutcome outcome, StatusCode code, std::string message,
                      double retry_after_ms = 0) {
  QueryResponse response;
  response.outcome = outcome;
  response.degradation = DegradationLevel::kFastReject;
  response.status_code = code;
  response.message = std::move(message);
  response.retry_after_ms = retry_after_ms;
  return response;
}

/// An admitted query's charge on the admission controller, returned when
/// it goes out of scope. A served query also feeds its execution time into
/// the controller's calibration.
class AdmissionCharge {
 public:
  AdmissionCharge(AdmissionController& admission, double flops)
      : admission_(admission), flops_(flops) {}
  ~AdmissionCharge() { admission_.Finish(flops_, exec_seconds_); }
  AdmissionCharge(const AdmissionCharge&) = delete;
  AdmissionCharge& operator=(const AdmissionCharge&) = delete;

  void set_exec_seconds(double seconds) { exec_seconds_ = seconds; }

 private:
  AdmissionController& admission_;
  const double flops_;
  double exec_seconds_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// QueryService

QueryService::QueryService(const HinGraph& graph, const ServiceOptions& options)
    : graph_(graph),
      options_(options),
      slots_(static_cast<size_t>(std::max(1, options.admission.workers))) {}

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
      // The cache stays below the soft memory-pressure threshold, so its
      // entries alone never degrade or shed a request, and the rest of the
      // budget stays free for the queries' working sets.
      const double share = std::clamp(options.admission.memory_soft_fraction, 0.0, 1.0);
      service->cache_->SetMemoryBudget(
          service->budget_,
          static_cast<size_t>(share *
                              static_cast<double>(service->budget_->limit_bytes())));
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
  return service;
}

QueryService::~QueryService() { Shutdown(); }

void QueryService::Shutdown() {
  MutexLock lock(mutex_);
  shutdown_ = true;
  for (const CancelToken* token : executing_) token->Cancel();
  slot_freed_.NotifyAll();
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
  // same budget while it runs (`ScatterRow` and `ScatterTopK` on the cache,
  // the one-shot plan without one).
  constexpr size_t kBaseBytes = 16 << 10;
  if (request.kind != QueryKind::kTopK) return kBaseBytes;
  // A response never holds more items than there are targets, whatever `k`
  // the wire carried.
  return kBaseBytes +
         static_cast<size_t>(std::min<Index>(std::max(0, request.k),
                                             graph_.NumNodes(path.TargetType()))) *
             sizeof(Scored);
}

QueryResponse QueryService::Execute(const QueryRequest& request,
                                    const CancelToken& cancel) {
  QueryResponse response = Serve(request, cancel);
  response.id = request.id;
  MutexLock lock(mutex_);
  ++completed_;
  if (response.served()) ++served_;
  if (response.outcome == ResponseOutcome::kDegraded) ++degraded_;
  return response;
}

QueryResponse QueryService::Serve(const QueryRequest& request,
                                  const CancelToken& cancel) {
  const Clock::time_point arrival = Clock::now();
  {
    MutexLock lock(mutex_);
    if (shutdown_) {
      return Refusal(ResponseOutcome::kShed, StatusCode::kFailedPrecondition,
                     "service shutting down");
    }
  }

  // Validate the request shape before spending anything. The path is
  // parsed per request: the shared cache is the service's only query state.
  Result<MetaPath> path = MetaPath::Parse(graph_.schema(), request.path);
  if (!path.ok()) return FailureResponse(path.status());
  if (request.kind == QueryKind::kTopK && request.k <= 0) {
    return FailureResponse(Status::InvalidArgument("top-k request needs k > 0"));
  }

  // Admission pipeline — synchronous, before any compute.
  const double flops = EstimateFlops(*path, request);
  const AdmissionDecision decision =
      admission_->Admit(request.tenant, flops, request.deadline_ms, arrival);
  if (!decision.admitted) {
    return Refusal(decision.reject_outcome, StatusCode::kResourceExhausted,
                   decision.reason, decision.retry_after_ms);
  }

  // From here the admission charge and the reservation are released by
  // scope on every exit, the reservation first, so the controller's next
  // memory-pressure reading sees it gone.
  AdmissionCharge charge(*admission_, flops);
  MemoryReservation reservation;
  const size_t bytes = EstimateBytes(*path, request);
  bool reserve_failed = HETESIM_FAULT_POINT("service.admit.alloc");
  if (!reserve_failed && budget_ != nullptr) {
    if (budget_->TryReserve(bytes)) {
      reservation = MemoryReservation(budget_.get(), bytes);
    } else {
      reserve_failed = true;
    }
  }
  if (reserve_failed) {
    return Refusal(ResponseOutcome::kShed, StatusCode::kResourceExhausted,
                   "memory reservation failed",
                   std::max(1.0, decision.estimated_wait_ms));
  }

  QueryContext ctx = QueryContext::Background().WithCancel(cancel);
  if (request.deadline_ms > 0) {
    ctx = ctx.WithDeadline(arrival + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double, std::milli>(
                                             request.deadline_ms)));
  }
  if (budget_ != nullptr) ctx = ctx.WithBudget(budget_.get());

  // Waiting for a slot is the queue.
  const Status slot = AcquireSlot(ctx);
  const Clock::time_point start = Clock::now();
  if (!slot.ok()) {
    QueryResponse response = FailureResponse(slot);
    response.queue_ms = MsBetween(arrival, start);
    return response;
  }
  QueryResponse response = Run(request, *path, decision.level, ctx);
  const Clock::time_point end = Clock::now();
  ReleaseSlot(ctx.token());
  response.queue_ms = MsBetween(arrival, start);
  response.exec_ms = MsBetween(start, end);
  if (response.served()) charge.set_exec_seconds(response.exec_ms / 1e3);
  return response;
}

Status QueryService::AcquireSlot(const QueryContext& ctx) {
  const Clock::time_point deadline =
      ctx.deadline().value_or(Clock::time_point::max());
  MutexLock lock(mutex_);
  for (;;) {
    if (shutdown_) return Status::Cancelled("service shutting down");
    if (Status alive = ctx.CheckAlive(); !alive.ok()) {
      // Pass on a wake-up this caller may have taken from a freed slot.
      if (executing_.size() < slots_) slot_freed_.NotifyOne();
      return alive;
    }
    // Whoever finds a slot free takes it, waiter or newcomer: handing it to
    // the oldest waiter instead would leave it idle until that sleeping
    // thread is scheduled, which costs goodput under overload.
    if (executing_.size() < slots_) {
      executing_.push_back(&ctx.token());
      return Status::OK();
    }
    slot_freed_.WaitUntil(mutex_,
                          std::min(deadline, Clock::now() + kSlotPollInterval));
  }
}

void QueryService::ReleaseSlot(const CancelToken& token) {
  {
    MutexLock lock(mutex_);
    executing_.erase(std::find(executing_.begin(), executing_.end(), &token));
  }
  slot_freed_.NotifyOne();
}

QueryResponse QueryService::Run(const QueryRequest& request, const MetaPath& path,
                                DegradationLevel level,
                                const QueryContext& ctx) {
  QueryResponse response;
  response.degradation = level;

  if (Status alive = ctx.CheckAlive(); !alive.ok()) {
    return FailureResponse(alive);
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
      if (!scores.ok()) return FailureResponse(scores.status());
      response.scores = std::move(*scores);
      break;
    }
    case QueryKind::kSingleSource: {
      Result<std::vector<double>> scores =
          engine.ComputeSingleSource(path, request.source, ctx);
      if (!scores.ok()) return FailureResponse(scores.status());
      if (Status alive = ctx.CheckAlive(); !alive.ok()) {
        return FailureResponse(alive);
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
      if (!result.ok()) return FailureResponse(result.status());
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
