#ifndef HETESIM_WORKLOAD_RECORDER_H_
#define HETESIM_WORKLOAD_RECORDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace hetesim::workload {

/// Terminal state of one executed query.
enum class QueryOutcome {
  kOk,                ///< completed, full answer
  kTruncated,         ///< top-k partial answer with the truncation marker
  kDeadlineExceeded,  ///< all-or-nothing query died on its deadline
  kCancelled,         ///< cooperative cancellation surfaced
  kError,             ///< any other non-OK status
  // Service-mode outcomes (DESIGN.md §13): the admission pipeline answered
  // instead of the engine.
  kRejected,  ///< refused before compute (queue full / deadline / quota)
  kShed,      ///< dropped under overload or memory pressure
  kDegraded,  ///< served, but at a reduced degradation level
};

/// True when the client got an answer with scores in it (kOk, kTruncated,
/// kDegraded) — the numerator of goodput.
bool OutcomeServed(QueryOutcome outcome);

/// Latency/SLO aggregate of one query class over a run.
struct ClassStats {
  std::string name;
  int64_t queries = 0;  ///< recorded (post-warmup) queries
  int64_t ok = 0;
  int64_t truncated = 0;
  int64_t deadline_exceeded = 0;
  int64_t cancelled = 0;
  int64_t errors = 0;
  int64_t rejected = 0;  ///< admission refusals (service mode)
  int64_t shed = 0;      ///< load/memory shedding (service mode)
  int64_t degraded = 0;  ///< served at a reduced degradation level
  /// Queries whose latency exceeded their per-query deadline OR that ended
  /// truncated/expired — the user-facing SLO-miss count.
  int64_t deadline_missed = 0;
  double throughput_qps = 0;  ///< queries / wall seconds of the run
  /// Served answers (ok + truncated + degraded) / wall seconds — the number
  /// that must stay flat past saturation if shedding works.
  double goodput_qps = 0;
  /// Mean deadline the scenario assigned this class (0 = none); echoed so
  /// the report is self-contained for SLO assertions.
  double deadline_ms = 0;
  double mean_ms = 0;
  double max_ms = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double p999_ms = 0;
  /// Latency quantiles over *served* answers only. Rejections return in
  /// microseconds and would make the all-outcome p99 look better under
  /// overload, not worse — SLO verdicts for admitted queries read these.
  double served_p99_ms = 0;
  double served_max_ms = 0;
};

/// Per-tenant issue counts (fairness reporting).
struct TenantStats {
  int tenant = 0;
  int64_t queries = 0;
};

/// \brief Thread-safe per-class latency collector.
///
/// Workers call `Record` concurrently; aggregation (`ClassReport`) sorts the
/// raw samples and reports exact quantiles — no histogram interpolation
/// error in the published p99s. Each `Record` also feeds the process-wide
/// metrics registry (`hetesim_workload_*`), so BENCH artifacts and
/// `--metrics-out` dumps carry the same numbers.
class LatencyRecorder {
 public:
  /// `class_names` fixes the class-id space; `tenants` the tenant count.
  LatencyRecorder(std::vector<std::string> class_names, int tenants);

  /// Records one finished query. Thread-safe; `latency_seconds` is wall
  /// time, `deadline_missed` is the caller's SLO verdict (false when the
  /// query had no deadline).
  void Record(int class_id, int tenant, double latency_seconds,
              QueryOutcome outcome, bool deadline_missed) EXCLUDES(mutex_);

  /// Aggregates one class; `wall_seconds` converts counts to throughput.
  ClassStats ClassReport(int class_id, double wall_seconds) const
      EXCLUDES(mutex_);
  std::vector<TenantStats> TenantReport() const EXCLUDES(mutex_);
  int64_t total_recorded() const EXCLUDES(mutex_);

 private:
  struct PerClass {
    std::vector<double> latencies_s;
    /// Subset of `latencies_s` whose outcome served an answer.
    std::vector<double> served_latencies_s;
    int64_t ok = 0;
    int64_t truncated = 0;
    int64_t deadline_exceeded = 0;
    int64_t cancelled = 0;
    int64_t errors = 0;
    int64_t rejected = 0;
    int64_t shed = 0;
    int64_t degraded = 0;
    int64_t deadline_missed = 0;
  };

  std::vector<std::string> class_names_;
  mutable Mutex mutex_;
  std::vector<PerClass> classes_ GUARDED_BY(mutex_);
  std::vector<int64_t> tenant_counts_ GUARDED_BY(mutex_);
};

}  // namespace hetesim::workload

#endif  // HETESIM_WORKLOAD_RECORDER_H_
