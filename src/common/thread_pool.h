#ifndef HETESIM_COMMON_THREAD_POOL_H_
#define HETESIM_COMMON_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "common/annotations.h"
#include "common/mutex.h"

namespace hetesim {

/// \brief Grain-sizing hints for `ParallelFor` (cost-based chunking).
///
/// A parallel region is split into *blocks* that workers claim dynamically.
/// The block size is chosen so one block amortizes scheduling overhead:
/// roughly `kTargetGrainCost / cost_per_element` elements per block, where
/// `cost_per_element` is the caller's estimate of the work per element in
/// arbitrary relative units (1.0 ~ a handful of arithmetic ops; pass e.g.
/// the row width for a dense row sweep). Cheap bodies therefore get few
/// large blocks — possibly one, which runs inline with zero dispatch cost —
/// while expensive bodies get enough blocks for dynamic load balancing.
struct GrainOptions {
  /// Estimated relative cost of one element (>= 0; values < 1e-9 are
  /// treated as 1e-9). Default assumes a trivially cheap body.
  double cost_per_element = 1.0;
};

/// \brief A persistent pool of worker threads with a blocking task queue.
///
/// Workers are spawned once at construction and sleep on a condition
/// variable when idle, so dispatching a parallel region costs a queue push
/// and a wake-up instead of `pthread_create` + join per call. One
/// lazily-initialized process-wide pool (`Global()`) is shared by every
/// parallel region in the library — the SpGEMM kernels in
/// `matrix/spgemm.h`, the engine's normalization sweeps, `ComputePairs`,
/// and the benches — so concurrent queries time-share one set of OS
/// threads instead of oversubscribing the machine with per-call spawns.
///
/// Thread-safety: every public member is safe to call from any thread,
/// including from inside pool tasks (`ParallelFor` is nested-safe: the
/// caller always drains its own blocks, so a worker calling `ParallelFor`
/// never deadlocks waiting for itself).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (clamped to at least 0; a 0-worker pool
  /// is valid — every region then runs entirely on the calling thread).
  explicit ThreadPool(int num_threads);
  /// Joins all workers after they drain the queue: every task submitted
  /// before destruction runs (on a 0-worker pool, pending tasks are
  /// discarded — but such a pool never enqueues region helpers).
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// The process-wide pool, created on first use with `HardwareThreads()`
  /// workers and intentionally never destroyed (worker threads must not be
  /// joined during static destruction; the object stays reachable, so it
  /// is not a leak under LeakSanitizer).
  static ThreadPool& Global();

  /// Number of worker threads (excluding callers, which also execute
  /// blocks inside `ParallelFor`).
  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues `task` for execution on some worker. Fire-and-forget; use
  /// `ParallelFor` for blocking fan-out/join.
  void Submit(std::function<void()> task) EXCLUDES(mutex_);

  /// Runs `body(block_begin, block_end)` over `[begin, end)` split per
  /// `grain`, using up to `num_threads` participants: the calling thread
  /// plus up to `num_threads - 1` pool workers. Blocks until the whole
  /// range is done. `num_threads == 0` means "all hardware threads".
  /// Blocks partition the range deterministically (same begin/end/threads/
  /// grain => same block boundaries), so per-block output buffers are
  /// race-free and results are reproducible at any thread count.
  void ParallelFor(int64_t begin, int64_t end, int num_threads,
                   const std::function<void(int64_t, int64_t)>& body,
                   const GrainOptions& grain = {});

  /// Concurrency counters, surfaced in the same spirit as
  /// `PathMatrixCache::Stats` and mirrored into the process-wide
  /// `MetricsRegistry` as `hetesim_pool_*` (DESIGN.md §12). All counters
  /// monotonically increasing; `queue_depth` is the instantaneous level.
  /// At a fixed thread count, `tasks_run`, `regions` and `dispatches` are
  /// deterministic (block partitions and helper counts are pure functions
  /// of range/threads/grain); `steals` and the wait/idle times depend on
  /// scheduling and are not.
  struct Stats {
    uint64_t tasks_run = 0;       ///< blocks executed (workers + callers)
    uint64_t steals = 0;          ///< blocks executed by pool workers
    uint64_t regions = 0;         ///< ParallelFor regions dispatched
    uint64_t dispatches = 0;      ///< tasks enqueued via Submit
    int64_t queue_depth = 0;      ///< tasks currently enqueued, not yet popped
    double caller_wait_seconds = 0;  ///< callers blocked on straggler blocks
    double worker_idle_seconds = 0;  ///< workers blocked on an empty queue
  };
  Stats stats() const;
  /// Zeroes all counters (benches bracket runs with this).
  void ResetStats();

 private:
  void WorkerLoop() EXCLUDES(mutex_);

  std::vector<std::thread> workers_;

  Mutex mutex_;
  CondVar queue_cv_;  ///< signalled on push and on shutdown
  std::deque<std::function<void()>> queue_ GUARDED_BY(mutex_);
  bool stop_ GUARDED_BY(mutex_) = false;

  std::atomic<uint64_t> tasks_run_{0};
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> regions_{0};
  std::atomic<uint64_t> dispatches_{0};
  std::atomic<int64_t> queue_depth_{0};
  std::atomic<uint64_t> caller_wait_ns_{0};
  std::atomic<uint64_t> worker_idle_ns_{0};
};

}  // namespace hetesim

#endif  // HETESIM_COMMON_THREAD_POOL_H_
