#include "common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <utility>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/parallel.h"

namespace hetesim {

namespace {

/// Process-wide pool instruments, mirroring `ThreadPool::Stats` for the
/// metrics sinks. Shared across pool instances (tests build private pools;
/// production uses Global()), so values aggregate.
struct PoolMetrics {
  Counter& tasks;
  Counter& steals;
  Counter& regions;
  Counter& dispatches;
  Gauge& queue_depth;
};

PoolMetrics& GlobalPoolMetrics() {
  static PoolMetrics metrics{
      MetricsRegistry::Global().GetCounter("hetesim_pool_tasks_total"),
      MetricsRegistry::Global().GetCounter("hetesim_pool_steals_total"),
      MetricsRegistry::Global().GetCounter("hetesim_pool_regions_total"),
      MetricsRegistry::Global().GetCounter("hetesim_pool_dispatches_total"),
      MetricsRegistry::Global().GetGauge("hetesim_pool_queue_depth"),
  };
  return metrics;
}

/// Target work per block, in `GrainOptions::cost_per_element` units. Tuned
/// so a block of trivially cheap elements (~ns each) still outweighs the
/// cost of a queue push + wake-up (~µs).
constexpr double kTargetGrainCost = 16384.0;
/// Upper bound on blocks per participating thread. More blocks than
/// threads lets fast threads pick up slack from slow ones.
constexpr int64_t kMaxBlocksPerThread = 4;

/// Deterministic block partition of a `range`-element iteration space for
/// `threads` participants under `grain`: `num_blocks` blocks of
/// `block_size` elements each (the last block may be short). Always
/// `1 <= num_blocks <= max(range, 1)`, and `num_blocks == 1` whenever the
/// range is empty, `threads <= 1`, or the whole range is cheaper than one
/// grain.
struct BlockPlan {
  int64_t block_size = 0;
  int64_t num_blocks = 0;
};

BlockPlan PlanBlocks(int64_t range, int threads, const GrainOptions& grain) {
  if (range <= 0) return {0, 0};
  const double cost = std::max(grain.cost_per_element, 1e-9);
  int64_t grain_size = static_cast<int64_t>(kTargetGrainCost / cost);
  grain_size = std::max<int64_t>(grain_size, 1);
  const int64_t participants = std::max(threads, 1);
  int64_t blocks = (range + grain_size - 1) / grain_size;
  blocks = std::min(blocks, participants * kMaxBlocksPerThread);
  blocks = std::max<int64_t>(std::min(blocks, range), 1);
  const int64_t block_size = (range + blocks - 1) / blocks;
  // Re-derive the count so no trailing block is empty.
  blocks = (range + block_size - 1) / block_size;
  return {block_size, blocks};
}

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(num_threads, 0);
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back(&ThreadPool::WorkerLoop, this);
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mutex_);
    stop_ = true;
  }
  queue_cv_.NotifyAll();
  for (std::thread& worker : workers_) worker.join();
  // A 0-worker pool may discard tasks that were pushed but never popped;
  // return their contribution so the global gauge stays balanced.
  MutexLock lock(mutex_);
  if (MetricsEnabled() && !queue_.empty()) {
    GlobalPoolMetrics().queue_depth.Add(
        -static_cast<int64_t>(queue_.size()));
  }
}

ThreadPool& ThreadPool::Global() {
  // Leaked on purpose: worker threads must never be joined from static
  // destructors (they may hold locks or outlive other statics). The
  // pointer keeps the pool reachable, so LeakSanitizer stays quiet.
  static ThreadPool* const pool =
      new ThreadPool(HardwareThreads());  // hetesim-lint: allow(no-naked-new)
  return *pool;
}

void ThreadPool::Submit(std::function<void()> task) {
  dispatches_.fetch_add(1, std::memory_order_relaxed);
  queue_depth_.fetch_add(1, std::memory_order_relaxed);
  if (MetricsEnabled()) {
    PoolMetrics& metrics = GlobalPoolMetrics();
    metrics.dispatches.Increment();
    metrics.queue_depth.Add(1);
  }
  {
    MutexLock lock(mutex_);
    queue_.push_back(std::move(task));
  }
  queue_cv_.NotifyOne();
}

void ThreadPool::WorkerLoop() {
  using Clock = std::chrono::steady_clock;
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      const Clock::time_point idle_start = Clock::now();
      // Predicate loop written inline (not as a wait-lambda) so the
      // thread-safety analysis sees the guarded reads under the lock.
      while (!stop_ && queue_.empty()) queue_cv_.Wait(mutex_);
      worker_idle_ns_.fetch_add(
          static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                    Clock::now() - idle_start)
                                    .count()),
          std::memory_order_relaxed);
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    queue_depth_.fetch_add(-1, std::memory_order_relaxed);
    if (MetricsEnabled()) GlobalPoolMetrics().queue_depth.Add(-1);
    task();
  }
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int num_threads,
                             const std::function<void(int64_t, int64_t)>& body,
                             const GrainOptions& grain) {
  const int64_t range = end - begin;
  if (range <= 0) return;
  regions_.fetch_add(1, std::memory_order_relaxed);
  if (MetricsEnabled()) GlobalPoolMetrics().regions.Increment();
  const int threads = num_threads == 0 ? std::max(1, this->num_threads())
                                       : std::max(num_threads, 1);
  const BlockPlan plan = PlanBlocks(range, threads, grain);
  if (threads <= 1 || plan.num_blocks <= 1) {
    body(begin, end);
    tasks_run_.fetch_add(1, std::memory_order_relaxed);
    if (MetricsEnabled()) GlobalPoolMetrics().tasks.Increment();
    return;
  }

  /// Shared fan-out/join state. Held by shared_ptr so helper tasks that
  /// fire after the region already finished (they claim no block and exit)
  /// never touch freed memory.
  struct Region {
    std::atomic<int64_t> next{0};
    Mutex m;
    CondVar cv;
    int64_t done GUARDED_BY(m) = 0;
  };
  auto region = std::make_shared<Region>();
  const int64_t blocks = plan.num_blocks;
  const int64_t block_size = plan.block_size;
  // The caller outlives the last block (it waits for done == blocks), so
  // late helpers only ever read the pointer, never dereference it.
  const auto* body_ptr = &body;
  auto drain = [this, region, body_ptr, begin, end, block_size, blocks](bool stolen) {
    for (;;) {
      const int64_t block = region->next.fetch_add(1, std::memory_order_relaxed);
      if (block >= blocks) return;
      const int64_t block_begin = begin + block * block_size;
      const int64_t block_end = std::min(end, block_begin + block_size);
      (*body_ptr)(block_begin, block_end);
      tasks_run_.fetch_add(1, std::memory_order_relaxed);
      if (stolen) steals_.fetch_add(1, std::memory_order_relaxed);
      if (MetricsEnabled()) {
        PoolMetrics& metrics = GlobalPoolMetrics();
        metrics.tasks.Increment();
        if (stolen) metrics.steals.Increment();
      }
      MutexLock lock(region->m);
      if (++region->done == blocks) region->cv.NotifyAll();
    }
  };

  // No more helpers than pool workers: extra tasks would only queue up and
  // find no blocks left (a 0-worker pool degenerates to inline execution).
  const int64_t helpers = std::min<int64_t>(
      {threads - 1, blocks - 1, static_cast<int64_t>(this->num_threads())});
  for (int64_t h = 0; h < helpers; ++h) {
    // Fault site "pool.dispatch": a lost helper submission. The region must
    // still complete correctly (just with less parallelism) because the
    // caller's own drain below claims every unclaimed block.
    if (HETESIM_FAULT_POINT("pool.dispatch")) continue;
    Submit([drain] { drain(/*stolen=*/true); });
  }
  drain(/*stolen=*/false);

  using Clock = std::chrono::steady_clock;
  const Clock::time_point wait_start = Clock::now();
  {
    MutexLock lock(region->m);
    while (region->done != blocks) region->cv.Wait(region->m);
  }
  caller_wait_ns_.fetch_add(
      static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                Clock::now() - wait_start)
                                .count()),
      std::memory_order_relaxed);
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats stats;
  stats.tasks_run = tasks_run_.load(std::memory_order_relaxed);
  stats.steals = steals_.load(std::memory_order_relaxed);
  stats.regions = regions_.load(std::memory_order_relaxed);
  stats.dispatches = dispatches_.load(std::memory_order_relaxed);
  stats.queue_depth = queue_depth_.load(std::memory_order_relaxed);
  stats.caller_wait_seconds =
      static_cast<double>(caller_wait_ns_.load(std::memory_order_relaxed)) * 1e-9;
  stats.worker_idle_seconds =
      static_cast<double>(worker_idle_ns_.load(std::memory_order_relaxed)) * 1e-9;
  return stats;
}

void ThreadPool::ResetStats() {
  tasks_run_.store(0, std::memory_order_relaxed);
  steals_.store(0, std::memory_order_relaxed);
  regions_.store(0, std::memory_order_relaxed);
  dispatches_.store(0, std::memory_order_relaxed);
  // queue_depth_ is a level, not a counter: resetting it would desync it
  // from the queue it mirrors.
  caller_wait_ns_.store(0, std::memory_order_relaxed);
  worker_idle_ns_.store(0, std::memory_order_relaxed);
}

}  // namespace hetesim
