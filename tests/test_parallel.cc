#include "common/parallel.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "core/hetesim.h"
#include "matrix/spgemm.h"
#include "test_util.h"

namespace hetesim {
namespace {

/// Forces every element into its own block so the dispatch machinery is
/// actually exercised (the default grain would run small test ranges
/// inline).
GrainOptions PerElementGrain() {
  GrainOptions grain;
  grain.cost_per_element = 1e9;
  return grain;
}

TEST(HardwareThreads, AtLeastOne) {
  EXPECT_GE(HardwareThreads(), 1);
}

TEST(ResolveNumThreads, ZeroMeansAllHardwareThreads) {
  EXPECT_EQ(ResolveNumThreads(0), HardwareThreads());
  EXPECT_EQ(ResolveNumThreads(1), 1);
  EXPECT_EQ(ResolveNumThreads(5), 5);
  EXPECT_EQ(ResolveNumThreads(-3), 1);
}

// --- Centralized range clamping (formerly each caller's job) ---

/// How often each index of `[0, end)` is visited by one `ParallelFor` over
/// `[begin, end)` with per-element grain. Every block must be non-empty.
std::vector<int> VisitCounts(int64_t begin, int64_t end, int num_threads) {
  std::vector<std::atomic<int>> visits(static_cast<size_t>(end));
  ParallelFor(
      begin, end, num_threads,
      [&](int64_t block_begin, int64_t block_end) {
        EXPECT_LT(block_begin, block_end);
        for (int64_t i = block_begin; i < block_end; ++i) {
          visits[static_cast<size_t>(i)].fetch_add(1);
        }
      },
      PerElementGrain());
  std::vector<int> counts;
  counts.reserve(visits.size());
  for (const auto& count : visits) counts.push_back(count.load());
  return counts;
}

/// The visit counts a correct region over `[begin, end)` produces.
std::vector<int> ExactlyOnce(int64_t begin, int64_t end) {
  std::vector<int> counts(static_cast<size_t>(end), 1);
  std::fill(counts.begin(), counts.begin() + begin, 0);
  return counts;
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  EXPECT_EQ(VisitCounts(0, 100, 4), ExactlyOnce(0, 100));
  EXPECT_EQ(VisitCounts(10, 110, 7), ExactlyOnce(10, 110));
}

TEST(ParallelFor, ZeroThreadsUsesPoolAndCoversRangeOnce) {
  // num_threads 0 means all hardware threads.
  EXPECT_EQ(VisitCounts(0, 64, 0), ExactlyOnce(0, 64));
}

TEST(ParallelFor, SingleThreadRunsInline) {
  // Even with a grain that would split the range into ten blocks, one
  // thread runs everything on the caller.
  const std::thread::id caller = std::this_thread::get_id();
  int64_t covered = 0;
  ParallelFor(
      0, 10, 1,
      [&](int64_t begin, int64_t end) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        covered += end - begin;
      },
      PerElementGrain());
  EXPECT_EQ(covered, 10);
}

TEST(ParallelFor, BlocksTileTheRangeDeterministically) {
  // Blocks are non-empty, disjoint and contiguous, and the same call gives
  // the same boundaries every time — which is what makes per-block output
  // buffers race-free and results reproducible at any thread count.
  auto blocks_of = [](const GrainOptions& grain) {
    std::mutex mutex;
    std::vector<std::pair<int64_t, int64_t>> blocks;
    ParallelFor(
        10, 110, 7,
        [&](int64_t begin, int64_t end) {
          std::lock_guard<std::mutex> lock(mutex);
          blocks.emplace_back(begin, end);
        },
        grain);
    std::sort(blocks.begin(), blocks.end());
    return blocks;
  };
  GrainOptions coarse;
  coarse.cost_per_element = 500.0;  // ~32 elements per block
  for (const GrainOptions& grain : {PerElementGrain(), coarse}) {
    const std::vector<std::pair<int64_t, int64_t>> blocks = blocks_of(grain);
    ASSERT_GT(blocks.size(), 1u) << grain.cost_per_element;
    int64_t next = 10;
    for (const auto& [begin, end] : blocks) {
      EXPECT_EQ(begin, next);
      EXPECT_LT(begin, end);
      next = end;
    }
    EXPECT_EQ(next, 110);
    for (int repeat = 0; repeat < 5; ++repeat) {
      EXPECT_EQ(blocks_of(grain), blocks) << grain.cost_per_element;
    }
  }
}

TEST(ParallelFor, ConcurrentCallersEachCoverTheirOwnRange) {
  // Several threads dispatching regions onto the shared global pool at once,
  // as concurrent queries do: no block is lost, run twice, or handed to the
  // wrong region.
  constexpr int kCallers = 4;
  constexpr int kRegionsPerCaller = 25;
  std::atomic<int> wrong_regions{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&wrong_regions, c] {
      const int64_t begin = c;
      const int64_t end = 40 + 10 * c;
      for (int region = 0; region < kRegionsPerCaller; ++region) {
        if (VisitCounts(begin, end, 3) != ExactlyOnce(begin, end)) {
          wrong_regions.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& caller : callers) caller.join();
  EXPECT_EQ(wrong_regions.load(), 0);
}

TEST(ParallelFor, EmptyAndReversedRangesAreNoops) {
  bool called = false;
  ParallelFor(5, 5, 8, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
  ParallelFor(9, 2, 0, [&](int64_t, int64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, SingleElementRangeWithManyThreadsRunsOnce) {
  std::atomic<int> calls{0};
  for (int threads : {0, 1, 8, 64}) {
    ParallelFor(
        41, 42, threads,
        [&](int64_t begin, int64_t end) {
          EXPECT_EQ(begin, 41);
          EXPECT_EQ(end, 42);
          calls.fetch_add(1);
        },
        PerElementGrain());
    EXPECT_EQ(calls.exchange(0), 1) << threads;
  }
}

TEST(ParallelFor, ThreadsExceedingRangeStillCoverExactly) {
  std::vector<std::atomic<int>> visits(3);
  ParallelFor(
      0, 3, 16,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          visits[static_cast<size_t>(i)].fetch_add(1);
        }
      },
      PerElementGrain());
  for (const auto& count : visits) EXPECT_EQ(count.load(), 1);
}

TEST(ParallelFor, CheapBodyRunsInlineUnderDefaultGrain) {
  // 100 elements at default cost ~1 are far below one grain: no dispatch,
  // the body runs once on the calling thread.
  const std::thread::id caller = std::this_thread::get_id();
  int calls = 0;
  ParallelFor(0, 100, 8, [&](int64_t begin, int64_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    EXPECT_EQ(begin, 0);
    EXPECT_EQ(end, 100);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, NestedRegionsDoNotDeadlock) {
  std::atomic<int64_t> total{0};
  ParallelFor(
      0, 8, 4,
      [&](int64_t begin, int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
          ParallelFor(
              0, 10, 4,
              [&](int64_t inner_begin, int64_t inner_end) {
                total.fetch_add(inner_end - inner_begin);
              },
              PerElementGrain());
        }
      },
      PerElementGrain());
  EXPECT_EQ(total.load(), 8 * 10);
}

// --- ThreadPool unit tests (non-global instances) ---

TEST(ThreadPool, SubmitRunsAllTasks) {
  ThreadPool pool(3);
  std::mutex mutex;
  std::condition_variable cv;
  int done = 0;
  constexpr int kTasks = 50;
  for (int i = 0; i < kTasks; ++i) {
    pool.Submit([&] {
      std::lock_guard<std::mutex> lock(mutex);
      if (++done == kTasks) cv.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  cv.wait(lock, [&] { return done == kTasks; });
  EXPECT_EQ(done, kTasks);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      pool.Submit([&done] { done.fetch_add(1); });
    }
  }  // ~ThreadPool joins after the queue is drained
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPool, ZeroWorkerPoolRunsRegionsInline) {
  ThreadPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<int64_t> covered{0};
  pool.ParallelFor(0, 10, 1, [&](int64_t begin, int64_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    covered.fetch_add(end - begin);
  });
  EXPECT_EQ(covered.load(), 10);
}

TEST(ThreadPool, StatsCountRegionsAndTasks) {
  ThreadPool pool(2);
  GrainOptions grain;
  grain.cost_per_element = 1e9;
  pool.ParallelFor(0, 12, 4, [](int64_t, int64_t) {}, grain);
  pool.ParallelFor(0, 5, 1, [](int64_t, int64_t) {});  // inline region
  const ThreadPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.regions, 2u);
  // 12 single-element blocks + 1 inline run; the caller and both workers
  // share the blocks, so stolen blocks are at most the total.
  EXPECT_EQ(stats.tasks_run, 13u);
  EXPECT_LE(stats.steals, stats.tasks_run);
  EXPECT_GE(stats.caller_wait_seconds, 0.0);
  EXPECT_GE(stats.worker_idle_seconds, 0.0);
  pool.ResetStats();
  EXPECT_EQ(pool.stats().regions, 0u);
  EXPECT_EQ(pool.stats().tasks_run, 0u);
}

TEST(ParallelSpGemm, MatchesSequentialBitwise) {
  SparseMatrix a = testing::RandomBipartiteAdjacency(64, 48, 0.2, 88);
  SparseMatrix b = testing::RandomBipartiteAdjacency(48, 52, 0.2, 89);
  SparseMatrix sequential = a.Multiply(b);
  for (int threads : {0, 1, 2, 3, 8, 64}) {  // 0 = all hardware threads
    SparseMatrix parallel = MultiplySparseAdaptive(a, b, threads).value();
    // Bitwise: identical structure and values (same per-row computation).
    EXPECT_EQ(parallel.row_ptr(), sequential.row_ptr()) << threads;
    EXPECT_EQ(parallel.col_idx(), sequential.col_idx()) << threads;
    EXPECT_EQ(parallel.values(), sequential.values()) << threads;
  }
}

TEST(ParallelSpGemm, TinyMatrices) {
  SparseMatrix a = SparseMatrix::FromTriplets(1, 2, {{0, 1, 2.0}});
  SparseMatrix b = SparseMatrix::FromTriplets(2, 1, {{1, 0, 3.0}});
  SparseMatrix product = MultiplySparseAdaptive(a, b, 8).value();
  EXPECT_EQ(product.At(0, 0), 6.0);
}

TEST(ParallelSpGemm, NormalizedChainsStayStochastic) {
  SparseMatrix a = testing::RandomBipartiteAdjacency(40, 40, 0.15, 90)
                       .RowNormalized();
  SparseMatrix product = MultiplySparseAdaptive(a, a, 4).value();
  for (Index r = 0; r < product.rows(); ++r) {
    EXPECT_NEAR(product.RowSum(r), 1.0, 1e-12);
  }
}

TEST(EngineParallel, ComputeIdenticalAcrossThreadCounts) {
  HinGraph g = testing::RandomTripartite(30, 35, 25, 0.2, 91);
  MetaPath path = *MetaPath::Parse(g.schema(), "ABCBA");
  HeteSimOptions sequential_options;
  HeteSimEngine sequential(g, sequential_options);
  DenseMatrix expected = sequential.Compute(path).value();
  for (int threads : {2, 4, 8}) {
    HeteSimOptions options;
    options.num_threads = threads;
    HeteSimEngine engine(g, options);
    DenseMatrix scores = engine.Compute(path).value();
    EXPECT_TRUE(scores.ApproxEquals(expected, 0.0)) << threads;  // bitwise
  }
}

TEST(EngineParallel, UnnormalizedAlsoIdentical) {
  HinGraph g = testing::RandomTripartite(20, 25, 15, 0.25, 92);
  MetaPath path = *MetaPath::Parse(g.schema(), "ABC");
  HeteSimOptions raw;
  raw.normalized = false;
  HeteSimEngine sequential(g, raw);
  raw.num_threads = 4;
  HeteSimEngine parallel(g, raw);
  EXPECT_TRUE(parallel.Compute(path).value().ApproxEquals(
      sequential.Compute(path).value(), 0.0));
}

}  // namespace
}  // namespace hetesim
