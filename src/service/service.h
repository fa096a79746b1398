#ifndef HETESIM_SERVICE_SERVICE_H_
#define HETESIM_SERVICE_SERVICE_H_

#include <memory>
#include <vector>

#include "common/annotations.h"
#include "common/context.h"
#include "common/mutex.h"
#include "common/result.h"
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
  /// `admission.workers`, the number of queries executing at once.
  HeteSimOptions engine;
  /// Deadline slice for the kTruncatedTopK degradation level: a degraded
  /// top-k runs under min(its own deadline, now + this), so overloaded
  /// queries surrender their execution slot quickly and return a marked partial
  /// (a deadline error when the slice ends before the scatter, while a
  /// first touch computes the path's halves).
  double truncate_slice_ms = 10.0;
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

/// \brief The resident query engine: the admission pipeline in front of
/// `admission.workers` execution slots, running HeteSim queries under
/// per-query contexts on their callers' threads.
///
/// One instance serves one graph and owns no threads. `Execute` runs the
/// whole pipeline on the caller's thread: it sheds before any compute, waits
/// for a free slot (that wait is the admission queue) and runs the query
/// inline. It keeps no per-path state: every request parses its path, and
/// the shared, budgeted, evictable cache is the only query state that
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

  /// Admits or refuses `request`; an admitted one waits for one of
  /// `admission.workers` execution slots, then runs on the calling thread.
  /// The wait ends early on the request's deadline, on `cancel` and on
  /// `Shutdown`; cancelling `cancel` from another thread also stops a
  /// running query at its next chunk. Refusals and failures are responses,
  /// not errors. Thread-safe.
  QueryResponse Execute(const QueryRequest& request,
                        const CancelToken& cancel = CancelToken())
      EXCLUDES(mutex_);

  /// Refuses every later request, wakes every caller waiting for a slot and
  /// cancels every executing query. Returns without waiting for the callers
  /// to leave `Execute`. Idempotent; also run by the destructor.
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

  /// `Execute` without the completion counters.
  QueryResponse Serve(const QueryRequest& request, const CancelToken& cancel)
      EXCLUDES(mutex_);
  /// Waits until a slot is free and claims it for `ctx`'s token, which
  /// `Shutdown` then cancels. Fails on `ctx`'s deadline or cancellation and
  /// on `Shutdown`.
  [[nodiscard]] Status AcquireSlot(const QueryContext& ctx) EXCLUDES(mutex_);
  void ReleaseSlot(const CancelToken& token) EXCLUDES(mutex_);

  /// Execution of an admitted request on its slot.
  QueryResponse Run(const QueryRequest& request, const MetaPath& path,
                    DegradationLevel level, const QueryContext& ctx);

  const HinGraph& graph_;
  const ServiceOptions options_;
  const size_t slots_;  // max(1, admission.workers)

  std::shared_ptr<MemoryBudget> budget_;  // null when memory_mb == 0
  std::shared_ptr<PathMatrixCache> cache_;
  std::unique_ptr<HeteSimEngine> engine_;           // cache-backed
  std::unique_ptr<HeteSimEngine> engine_uncached_;  // degradation level 1
  std::unique_ptr<AdmissionController> admission_;

  mutable Mutex mutex_;
  CondVar slot_freed_;  // signalled by ReleaseSlot, broadcast by Shutdown
  bool shutdown_ GUARDED_BY(mutex_) = false;
  /// Tokens of the queries holding a slot (each lives in its caller's
  /// `Serve` frame until `ReleaseSlot`); the size is the slots taken.
  std::vector<const CancelToken*> executing_ GUARDED_BY(mutex_);
  uint64_t completed_ GUARDED_BY(mutex_) = 0;
  uint64_t served_ GUARDED_BY(mutex_) = 0;
  uint64_t degraded_ GUARDED_BY(mutex_) = 0;
};

}  // namespace hetesim::service

#endif  // HETESIM_SERVICE_SERVICE_H_
