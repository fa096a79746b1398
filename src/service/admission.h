#ifndef HETESIM_SERVICE_ADMISSION_H_
#define HETESIM_SERVICE_ADMISSION_H_

#include <chrono>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/annotations.h"
#include "common/context.h"
#include "common/mutex.h"
#include "service/protocol.h"

namespace hetesim::service {

/// \file
/// The admission pipeline (DESIGN.md §13): every query passes through one
/// synchronous `Admit` call *before* any compute. The controller
/// decides, in order:
///
///   1. queue bound      — is there room at all?
///   2. deadline check   — can this query plausibly finish in time, given
///                         its cost-model estimate and the queue's current
///                         drain rate? (shed before compute, not during)
///   3. tenant quota     — token bucket in *cost-seconds*, weighted
///   4. memory pressure  — `MemoryBudget::UsedFraction()` thresholds
///   5. degradation      — pick the cheapest level that keeps load bounded
///
/// All time is passed in explicitly (`Clock::time_point now`) so unit tests
/// drive the controller with a fake clock; the controller itself never
/// reads the wall clock.

using Clock = std::chrono::steady_clock;

/// Token bucket in abstract cost units. Not thread-safe on its own: the
/// `AdmissionController` serializes access under its mutex.
class TokenBucket {
 public:
  /// `rate` units refill per second up to `burst`; starts full.
  TokenBucket(double rate, double burst)
      : rate_(rate), burst_(burst), tokens_(burst) {}

  /// Refills for elapsed time then spends `cost` if available.
  bool TryTake(double cost, Clock::time_point now);
  /// Seconds until `cost` tokens will be available (0 if already).
  double SecondsUntil(double cost, Clock::time_point now) const;

 private:
  void RefillLocked(Clock::time_point now);

  double rate_;
  double burst_;
  double tokens_;
  bool primed_ = false;
  Clock::time_point last_refill_{};
};

/// Tuning knobs. Defaults target an interactive service on a few cores;
/// docs/performance.md §10 covers how to size them.
struct AdmissionOptions {
  /// Queries executing at once; an admitted query beyond it waits for a
  /// free slot (used to convert queued cost into an estimated wait).
  int workers = 2;
  /// Admitted-but-not-finished query cap. Beyond it, reject outright.
  int queue_capacity = 64;
  /// Initial cost-model calibration: estimated flops per second of one
  /// executing query. Recalibrated online (EWMA) from measured executions.
  double flops_per_second = 2e8;
  /// Per-tenant sustained budget in cost-seconds per second. <= 0 disables
  /// quota enforcement.
  double tenant_rate = 0.0;
  /// Per-tenant burst allowance in cost-seconds.
  double tenant_burst = 1.0;
  /// Optional per-tenant weight multipliers on `tenant_rate` (weighted
  /// fairness). Tenants beyond the vector (or with no entry) get weight 1.
  std::vector<double> tenant_weights;
  /// Load thresholds of the degradation ladder, as a fraction of
  /// queue/memory capacity in use. Must be increasing.
  double degrade_uncached_load = 0.50;
  double degrade_truncate_load = 0.75;
  double shed_load = 0.95;
  /// Memory-pressure thresholds on `MemoryBudget::UsedFraction()`: above
  /// `memory_soft_fraction` counts toward the load signal; above
  /// `memory_hard_fraction` queries are shed outright.
  double memory_soft_fraction = 0.80;
  double memory_hard_fraction = 0.95;
  /// Safety factor applied to the estimated wait+cost when checking a
  /// deadline (>1 rejects earlier; 0 disables deadline-aware rejection).
  double deadline_headroom = 1.2;
};

/// Outcome of one `Admit` call.
struct AdmissionDecision {
  bool admitted = false;
  /// When admitted: serving level. When not: always kFastReject.
  DegradationLevel level = DegradationLevel::kFull;
  /// When rejected: kRejected (structural: queue full, hopeless deadline,
  /// quota) or kShed (transient load/memory pressure).
  ResponseOutcome reject_outcome = ResponseOutcome::kRejected;
  /// Client hint: suggested wait before retrying, ms. 0 = no hint.
  double retry_after_ms = 0;
  /// Human-readable reason for non-admission (stable prefixes, used by
  /// tests and surfaced in responses).
  const char* reason = "";
  /// Estimated queue wait and execution cost at decision time, ms.
  double estimated_wait_ms = 0;
  double estimated_cost_ms = 0;
};

/// Monotonic counters for reporting (`ServiceStats()` / metrics).
struct AdmissionStats {
  uint64_t admitted = 0;
  uint64_t admitted_degraded = 0;
  uint64_t rejected_queue_full = 0;
  uint64_t rejected_deadline = 0;
  uint64_t rejected_quota = 0;
  uint64_t shed_load = 0;
  uint64_t shed_memory = 0;

  uint64_t rejected() const {
    return rejected_queue_full + rejected_deadline + rejected_quota;
  }
  uint64_t shed() const { return shed_load + shed_memory; }
};

/// \brief The admission decision point. Thread-safe; every public method
/// may be called concurrently from connection handlers.
class AdmissionController {
 public:
  /// `budget` is the service-wide memory budget observed for pressure
  /// shedding; may be null (no memory signal). Non-owning.
  AdmissionController(const AdmissionOptions& options, const MemoryBudget* budget);

  /// Decides whether a query with estimated `flops` and `remaining_deadline`
  /// (<= 0 means no deadline) from `tenant` may enter the queue. On
  /// admission the controller has charged the queue and quota; the caller
  /// MUST later call `Finish` exactly once.
  AdmissionDecision Admit(uint32_t tenant, double flops, double remaining_deadline_ms,
                          Clock::time_point now) EXCLUDES(mutex_);

  /// Releases the queue charge taken by an admitted query and feeds the
  /// measured execution time back into the cost calibration.
  /// `exec_seconds` <= 0 skips calibration (e.g. the query never ran).
  void Finish(double flops, double exec_seconds) EXCLUDES(mutex_);

  AdmissionStats stats() const EXCLUDES(mutex_);
  /// Queries admitted and not yet finished.
  int queue_depth() const EXCLUDES(mutex_);
  /// Current calibrated throughput estimate.
  double flops_per_second() const EXCLUDES(mutex_);

 private:
  double LoadLocked() const REQUIRES(mutex_);
  TokenBucket& BucketFor(uint32_t tenant) REQUIRES(mutex_);

  const AdmissionOptions options_;
  const MemoryBudget* const budget_;  // non-owning, may be null

  mutable Mutex mutex_;
  int queue_depth_ GUARDED_BY(mutex_) = 0;
  double queued_flops_ GUARDED_BY(mutex_) = 0;
  double flops_per_second_ GUARDED_BY(mutex_);
  AdmissionStats stats_ GUARDED_BY(mutex_);
  std::unordered_map<uint32_t, TokenBucket> buckets_ GUARDED_BY(mutex_);
};

}  // namespace hetesim::service

#endif  // HETESIM_SERVICE_ADMISSION_H_
