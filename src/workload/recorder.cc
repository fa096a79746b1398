#include "workload/recorder.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "common/metrics.h"

namespace hetesim::workload {
namespace {

/// Exact quantile by rank on a sorted sample (nearest-rank method: the
/// smallest value with cumulative frequency >= p). p in [0, 1].
double QuantileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/// Metric-name-safe copy of a class name (Prometheus charset).
std::string Sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                    (c >= 'A' && c <= 'Z') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

bool OutcomeServed(QueryOutcome outcome) {
  return outcome == QueryOutcome::kOk || outcome == QueryOutcome::kTruncated ||
         outcome == QueryOutcome::kDegraded;
}

LatencyRecorder::LatencyRecorder(std::vector<std::string> class_names,
                                 int tenants)
    : class_names_(std::move(class_names)) {
  HETESIM_CHECK(tenants > 0) << "LatencyRecorder needs at least one tenant";
  MutexLock lock(mutex_);
  classes_.resize(class_names_.size());
  tenant_counts_.assign(static_cast<size_t>(tenants), 0);
}

void LatencyRecorder::Record(int class_id, int tenant, double latency_seconds,
                             QueryOutcome outcome, bool deadline_missed) {
  HETESIM_CHECK(class_id >= 0 &&
                static_cast<size_t>(class_id) < class_names_.size());
  {
    MutexLock lock(mutex_);
    PerClass& cls = classes_[static_cast<size_t>(class_id)];
    cls.latencies_s.push_back(latency_seconds);
    if (OutcomeServed(outcome)) cls.served_latencies_s.push_back(latency_seconds);
    switch (outcome) {
      case QueryOutcome::kOk: cls.ok++; break;
      case QueryOutcome::kTruncated: cls.truncated++; break;
      case QueryOutcome::kDeadlineExceeded: cls.deadline_exceeded++; break;
      case QueryOutcome::kCancelled: cls.cancelled++; break;
      case QueryOutcome::kError: cls.errors++; break;
      case QueryOutcome::kRejected: cls.rejected++; break;
      case QueryOutcome::kShed: cls.shed++; break;
      case QueryOutcome::kDegraded: cls.degraded++; break;
    }
    if (deadline_missed) cls.deadline_missed++;
    if (tenant >= 0 && static_cast<size_t>(tenant) < tenant_counts_.size()) {
      tenant_counts_[static_cast<size_t>(tenant)]++;
    }
  }
  if (MetricsEnabled()) {
    MetricsRegistry& registry = MetricsRegistry::Global();
    registry.GetCounter("hetesim_workload_queries_total").Increment();
    if (deadline_missed) {
      registry.GetCounter("hetesim_workload_deadline_miss_total").Increment();
    }
    if (outcome == QueryOutcome::kCancelled) {
      registry.GetCounter("hetesim_workload_cancelled_total").Increment();
    }
    if (outcome == QueryOutcome::kError) {
      registry.GetCounter("hetesim_workload_errors_total").Increment();
    }
    if (outcome == QueryOutcome::kRejected) {
      registry.GetCounter("hetesim_workload_rejected_total").Increment();
    }
    if (outcome == QueryOutcome::kShed) {
      registry.GetCounter("hetesim_workload_shed_total").Increment();
    }
    if (outcome == QueryOutcome::kDegraded) {
      registry.GetCounter("hetesim_workload_degraded_total").Increment();
    }
    registry
        .GetHistogram("hetesim_workload_" +
                          Sanitize(class_names_[static_cast<size_t>(class_id)]) +
                          "_latency_seconds",
                      DefaultLatencyBoundariesSeconds())
        .Observe(latency_seconds);
  }
}

ClassStats LatencyRecorder::ClassReport(int class_id,
                                        double wall_seconds) const {
  HETESIM_CHECK(class_id >= 0 &&
                static_cast<size_t>(class_id) < class_names_.size());
  std::vector<double> sorted;
  std::vector<double> served_sorted;
  ClassStats stats;
  stats.name = class_names_[static_cast<size_t>(class_id)];
  {
    MutexLock lock(mutex_);
    const PerClass& cls = classes_[static_cast<size_t>(class_id)];
    sorted = cls.latencies_s;
    served_sorted = cls.served_latencies_s;
    stats.ok = cls.ok;
    stats.truncated = cls.truncated;
    stats.deadline_exceeded = cls.deadline_exceeded;
    stats.cancelled = cls.cancelled;
    stats.errors = cls.errors;
    stats.rejected = cls.rejected;
    stats.shed = cls.shed;
    stats.degraded = cls.degraded;
    stats.deadline_missed = cls.deadline_missed;
  }
  std::sort(sorted.begin(), sorted.end());
  stats.queries = static_cast<int64_t>(sorted.size());
  if (wall_seconds > 0) {
    stats.throughput_qps = static_cast<double>(stats.queries) / wall_seconds;
  }
  if (!sorted.empty()) {
    double sum = 0;
    for (double v : sorted) sum += v;
    stats.mean_ms = sum / static_cast<double>(sorted.size()) * 1e3;
    stats.max_ms = sorted.back() * 1e3;
    stats.p50_ms = QuantileSorted(sorted, 0.50) * 1e3;
    stats.p95_ms = QuantileSorted(sorted, 0.95) * 1e3;
    stats.p99_ms = QuantileSorted(sorted, 0.99) * 1e3;
    stats.p999_ms = QuantileSorted(sorted, 0.999) * 1e3;
  }
  std::sort(served_sorted.begin(), served_sorted.end());
  if (wall_seconds > 0) {
    stats.goodput_qps =
        static_cast<double>(served_sorted.size()) / wall_seconds;
  }
  if (!served_sorted.empty()) {
    stats.served_p99_ms = QuantileSorted(served_sorted, 0.99) * 1e3;
    stats.served_max_ms = served_sorted.back() * 1e3;
  }
  return stats;
}

std::vector<TenantStats> LatencyRecorder::TenantReport() const {
  MutexLock lock(mutex_);
  std::vector<TenantStats> out;
  out.reserve(tenant_counts_.size());
  for (size_t t = 0; t < tenant_counts_.size(); ++t) {
    out.push_back(TenantStats{static_cast<int>(t), tenant_counts_[t]});
  }
  return out;
}

int64_t LatencyRecorder::total_recorded() const {
  MutexLock lock(mutex_);
  int64_t total = 0;
  for (const PerClass& cls : classes_) {
    total += static_cast<int64_t>(cls.latencies_s.size());
  }
  return total;
}

}  // namespace hetesim::workload
