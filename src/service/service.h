#ifndef HETESIM_SERVICE_SERVICE_H_
#define HETESIM_SERVICE_SERVICE_H_

#include <memory>
#include <unordered_set>

#include "common/annotations.h"
#include "common/context.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_pool.h"
#include "core/hetesim.h"
#include "core/materialize.h"
#include "hin/graph.h"
#include "hin/metapath.h"
#include "service/admission.h"
#include "service/protocol.h"

namespace hetesim::service {

/// Service-level tuning, assembled by `hetesim_serve` / the workload
/// harness from flags and scenario directives.
struct ServiceOptions {
  AdmissionOptions admission;
  /// Service-wide memory budget in MB (cache + per-query working set).
  /// 0 = unlimited (no memory-pressure shedding).
  size_t memory_mb = 0;
  /// Share one `PathMatrixCache` across queries (the §4.6 acceleration).
  bool cache_enabled = true;
  /// Optional persistent tier under the shared cache (DESIGN.md §16):
  /// misses are served from it before recomputing and evictions are
  /// demoted into it, so a restarted server warms from disk. Opened by the
  /// caller (`hetesim_serve --store-dir`) so open failures surface there;
  /// ignored when `cache_enabled` is false.
  std::shared_ptr<MatrixStore> store;
  /// Engine options for admitted queries. `num_threads` here is per-query
  /// intra-query parallelism; inter-query parallelism is
  /// `admission.workers`.
  HeteSimOptions engine;
  /// Deadline slice for the kTruncatedTopK degradation level: a degraded
  /// top-k runs under min(its own deadline, now + this), so overloaded
  /// queries surrender their worker quickly and return a marked partial
  /// (a deadline error when the slice ends before the scatter, while a
  /// first touch computes the path's halves).
  double truncate_slice_ms = 10.0;
};

/// \brief Handle to one admitted (or refused) query.
///
/// Returned by `QueryService::Submit`. Refused queries are born done;
/// admitted ones complete when their pool task finishes. Thread-safe.
class PendingQuery {
 public:
  /// Blocks until the response is ready.
  const QueryResponse& Wait() const EXCLUDES(mutex_);
  /// Blocks up to `ms`; false on timeout.
  bool WaitForMs(int64_t ms) const EXCLUDES(mutex_);
  bool done() const EXCLUDES(mutex_);

  /// Requests cooperative cancellation of the running query (no-op once
  /// done). The connection layer calls this when the client disconnects.
  void Cancel() const { token_.Cancel(); }

 private:
  friend class QueryService;

  void Complete(QueryResponse response) EXCLUDES(mutex_);

  CancelToken token_;
  mutable Mutex mutex_;
  mutable CondVar cond_;
  bool done_ GUARDED_BY(mutex_) = false;
  QueryResponse response_ GUARDED_BY(mutex_);
};

/// Point-in-time service counters for reports and introspection.
struct ServiceStats {
  AdmissionStats admission;
  uint64_t completed = 0;
  uint64_t served = 0;
  uint64_t degraded = 0;
  size_t memory_used_bytes = 0;
  size_t memory_peak_bytes = 0;
  double flops_per_second = 0;
};

/// \brief The resident query engine: admission pipeline in front of a
/// worker pool executing HeteSim queries under per-query contexts.
///
/// One instance serves one graph. `Submit` runs the full admission
/// pipeline synchronously on the caller's thread (shed before compute) and
/// either returns a completed rejection or enqueues the query on the owned
/// worker pool. It keeps no per-path state: every request parses its path,
/// and the shared, budgeted, evictable cache is the only query state that
/// outlives a request. Used directly (in-process mode of the workload
/// harness) or behind `SocketServer` (hetesim_serve).
class QueryService {
 public:
  /// `graph` must outlive the service.
  static std::unique_ptr<QueryService> Create(const HinGraph& graph,
                                              const ServiceOptions& options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admits or refuses `request`. Never blocks on compute: refusals return
  /// an already-done handle, admissions return a handle completed by a
  /// worker. Never returns null.
  std::shared_ptr<PendingQuery> Submit(const QueryRequest& request)
      EXCLUDES(mutex_);

  /// Convenience: `Submit` + `Wait`.
  QueryResponse Execute(const QueryRequest& request);

  /// Cancels every in-flight query and drains the worker pool. Idempotent;
  /// also run by the destructor. After shutdown, `Submit` sheds everything.
  void Shutdown() EXCLUDES(mutex_);

  ServiceStats stats() const EXCLUDES(mutex_);
  /// Bytes currently reserved on the service budget (0 when unbudgeted).
  size_t MemoryUsedBytes() const;
  const HinGraph& graph() const { return graph_; }

 private:
  QueryService(const HinGraph& graph, const ServiceOptions& options);

  /// Cost-model estimate for one request along `path` (flops) and its
  /// transient working-set (bytes).
  double EstimateFlops(const MetaPath& path, const QueryRequest& request) const;
  size_t EstimateBytes(const MetaPath& path, const QueryRequest& request) const;

  /// Worker-side execution of an admitted request.
  QueryResponse Run(const QueryRequest& request, const MetaPath& path,
                    DegradationLevel level, const QueryContext& ctx);

  std::shared_ptr<PendingQuery> CompleteNow(QueryResponse response);
  void RecordCompletion(const QueryResponse& response) EXCLUDES(mutex_);

  const HinGraph& graph_;
  const ServiceOptions options_;

  std::shared_ptr<MemoryBudget> budget_;  // null when memory_mb == 0
  std::shared_ptr<PathMatrixCache> cache_;
  std::unique_ptr<HeteSimEngine> engine_;           // cache-backed
  std::unique_ptr<HeteSimEngine> engine_uncached_;  // degradation level 1
  std::unique_ptr<AdmissionController> admission_;
  std::unique_ptr<ThreadPool> pool_;

  mutable Mutex mutex_;
  bool shutdown_ GUARDED_BY(mutex_) = false;
  std::unordered_set<std::shared_ptr<PendingQuery>> inflight_
      GUARDED_BY(mutex_);
  uint64_t completed_ GUARDED_BY(mutex_) = 0;
  uint64_t served_ GUARDED_BY(mutex_) = 0;
  uint64_t degraded_ GUARDED_BY(mutex_) = 0;
};

}  // namespace hetesim::service

#endif  // HETESIM_SERVICE_SERVICE_H_
