#include "service/admission.h"

#include <algorithm>

#include "common/metrics.h"

namespace hetesim::service {
namespace {

// EWMA weight for online flops/second calibration: heavy enough to adapt
// to a workload shift within ~10 queries, light enough that one outlier
// (cold cache, page faults) cannot swing the admission threshold.
constexpr double kCalibrationAlpha = 0.2;
// Calibration samples outside this band are measurement noise (timer
// granularity on tiny queries, a stalled thread) and are clamped.
constexpr double kMinFlopsPerSecond = 1e6;
constexpr double kMaxFlopsPerSecond = 1e12;

void BumpCounter(const char* name) {
  if (!MetricsEnabled()) return;
  MetricsRegistry::Global().GetCounter(name).Increment();
}

}  // namespace

bool TokenBucket::TryTake(double cost, Clock::time_point now) {
  RefillLocked(now);
  if (tokens_ < cost) return false;
  tokens_ -= cost;
  return true;
}

double TokenBucket::SecondsUntil(double cost, Clock::time_point now) const {
  TokenBucket copy = *this;
  copy.RefillLocked(now);
  if (copy.tokens_ >= cost) return 0.0;
  if (rate_ <= 0.0) return 60.0;  // quota disabled-but-empty: long hint
  return (cost - copy.tokens_) / rate_;
}

void TokenBucket::RefillLocked(Clock::time_point now) {
  if (!primed_) {
    primed_ = true;
    last_refill_ = now;
    return;
  }
  if (now <= last_refill_) return;
  const double elapsed =
      std::chrono::duration<double>(now - last_refill_).count();
  last_refill_ = now;
  tokens_ = std::min(burst_, tokens_ + elapsed * rate_);
}

AdmissionController::AdmissionController(const AdmissionOptions& options,
                                         const MemoryBudget* budget)
    : options_(options), budget_(budget), flops_per_second_(options.flops_per_second) {
  if (flops_per_second_ <= 0) flops_per_second_ = 2e8;
}

double AdmissionController::LoadLocked() const {
  const double queue_fraction =
      options_.queue_capacity > 0
          ? static_cast<double>(queue_depth_) / options_.queue_capacity
          : 0.0;
  double memory_fraction = 0.0;
  if (budget_ != nullptr) {
    // Below the soft threshold memory contributes nothing; between soft
    // and hard it ramps linearly to 1 so the ladder engages before the
    // hard shed point.
    const double used = budget_->UsedFraction();
    if (used > options_.memory_soft_fraction) {
      const double span =
          std::max(1e-9, options_.memory_hard_fraction - options_.memory_soft_fraction);
      memory_fraction = std::min(1.0, (used - options_.memory_soft_fraction) / span);
    }
  }
  return std::max(queue_fraction, memory_fraction);
}

TokenBucket& AdmissionController::BucketFor(uint32_t tenant) {
  auto it = buckets_.find(tenant);
  if (it == buckets_.end()) {
    double weight = 1.0;
    if (tenant < options_.tenant_weights.size() &&
        options_.tenant_weights[tenant] > 0) {
      weight = options_.tenant_weights[tenant];
    }
    it = buckets_
             .emplace(tenant, TokenBucket(options_.tenant_rate * weight,
                                          options_.tenant_burst * weight))
             .first;
  }
  return it->second;
}

AdmissionDecision AdmissionController::Admit(uint32_t tenant, double flops,
                                             double remaining_deadline_ms,
                                             Clock::time_point now) {
  MutexLock lock(mutex_);
  AdmissionDecision decision;
  const double cost_seconds = std::max(0.0, flops) / flops_per_second_;
  const double wait_seconds =
      options_.workers > 0 ? (queued_flops_ / flops_per_second_) / options_.workers
                           : 0.0;
  decision.estimated_cost_ms = cost_seconds * 1e3;
  decision.estimated_wait_ms = wait_seconds * 1e3;

  // 1. Queue bound: a full admission queue is a structural reject — the
  //    client should back off rather than pile on.
  if (queue_depth_ >= options_.queue_capacity) {
    ++stats_.rejected_queue_full;
    BumpCounter("hetesim_service_rejected_total");
    decision.reject_outcome = ResponseOutcome::kRejected;
    decision.level = DegradationLevel::kFastReject;
    decision.reason = "queue full";
    decision.retry_after_ms = std::max(1.0, decision.estimated_wait_ms);
    return decision;
  }

  // 2. Deadline feasibility: estimated wait + estimated cost (with
  //    headroom) past the remaining budget means the query would hold an
  //    execution slot only to miss — reject before compute.
  if (remaining_deadline_ms > 0 && options_.deadline_headroom > 0) {
    const double predicted_ms =
        (wait_seconds + cost_seconds) * 1e3 * options_.deadline_headroom;
    if (predicted_ms > remaining_deadline_ms) {
      ++stats_.rejected_deadline;
      BumpCounter("hetesim_service_rejected_total");
      decision.reject_outcome = ResponseOutcome::kRejected;
      decision.level = DegradationLevel::kFastReject;
      decision.reason = "deadline infeasible";
      return decision;
    }
  }

  // 3. Tenant quota, in cost-seconds: heavy queries drain the bucket
  //    proportionally to the work they demand, so fairness is over
  //    compute, not query count.
  if (options_.tenant_rate > 0) {
    TokenBucket& bucket = BucketFor(tenant);
    if (!bucket.TryTake(cost_seconds, now)) {
      ++stats_.rejected_quota;
      BumpCounter("hetesim_service_rejected_total");
      decision.reject_outcome = ResponseOutcome::kRejected;
      decision.level = DegradationLevel::kFastReject;
      decision.reason = "tenant quota";
      decision.retry_after_ms = bucket.SecondsUntil(cost_seconds, now) * 1e3;
      return decision;
    }
  }

  // 4. Memory hard limit: above it, nothing new is admitted regardless of
  //    queue state; reservations must drain first.
  if (budget_ != nullptr &&
      budget_->UsedFraction() >= options_.memory_hard_fraction) {
    ++stats_.shed_memory;
    BumpCounter("hetesim_service_shed_total");
    decision.reject_outcome = ResponseOutcome::kShed;
    decision.level = DegradationLevel::kFastReject;
    decision.reason = "memory pressure";
    decision.retry_after_ms = std::max(1.0, decision.estimated_wait_ms);
    return decision;
  }

  // 5. Degradation ladder on the combined load signal.
  const double load = LoadLocked();
  if (load >= options_.shed_load) {
    ++stats_.shed_load;
    BumpCounter("hetesim_service_shed_total");
    decision.reject_outcome = ResponseOutcome::kShed;
    decision.level = DegradationLevel::kFastReject;
    decision.reason = "overload";
    decision.retry_after_ms = std::max(1.0, decision.estimated_wait_ms);
    return decision;
  }
  decision.admitted = true;
  if (load >= options_.degrade_truncate_load) {
    decision.level = DegradationLevel::kTruncatedTopK;
    decision.reason = "load: truncated";
    ++stats_.admitted_degraded;
  } else if (load >= options_.degrade_uncached_load) {
    decision.level = DegradationLevel::kUncached;
    decision.reason = "load: uncached";
    ++stats_.admitted_degraded;
  } else {
    decision.level = DegradationLevel::kFull;
  }
  ++stats_.admitted;
  BumpCounter("hetesim_service_admitted_total");
  ++queue_depth_;
  queued_flops_ += std::max(0.0, flops);
  return decision;
}

void AdmissionController::Finish(double flops, double exec_seconds) {
  MutexLock lock(mutex_);
  if (queue_depth_ > 0) --queue_depth_;
  queued_flops_ = std::max(0.0, queued_flops_ - std::max(0.0, flops));
  if (exec_seconds > 0 && flops > 0) {
    const double sample = std::clamp(flops / exec_seconds, kMinFlopsPerSecond,
                                     kMaxFlopsPerSecond);
    flops_per_second_ =
        (1.0 - kCalibrationAlpha) * flops_per_second_ + kCalibrationAlpha * sample;
  }
}

AdmissionStats AdmissionController::stats() const {
  MutexLock lock(mutex_);
  return stats_;
}

int AdmissionController::queue_depth() const {
  MutexLock lock(mutex_);
  return queue_depth_;
}

double AdmissionController::flops_per_second() const {
  MutexLock lock(mutex_);
  return flops_per_second_;
}

}  // namespace hetesim::service
