// Concurrency stress suite for the thread-pool runtime and the shared
// PathMatrixCache: miss-storms on one key, many engines over one cache,
// clears racing in-flight computations. These tests are the payload of the
// sanitizer CI matrix (-DHETESIM_SANITIZE=thread|address) — they are
// written to maximize interleavings, not to measure speed.

#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "core/frontier.h"
#include "core/hetesim.h"
#include "core/materialize.h"
#include "test_util.h"

namespace hetesim {
namespace {

/// Holds arriving threads until all `expected` have arrived, then releases
/// them together — turns "N threads eventually ran" into "N threads hit
/// the cache at the same instant".
class StartGate {
 public:
  explicit StartGate(int expected) : expected_(expected) {}

  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mutex_);
    if (++arrived_ == expected_) {
      cv_.notify_all();
      return;
    }
    cv_.wait(lock, [this] { return arrived_ == expected_; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  int expected_;
  int arrived_ = 0;
};

std::vector<MetaPath> OverlappingPaths(const HinGraph& graph) {
  // Deliberately overlapping halves: ABCBA's left half is ABC's reachable
  // matrix, ABA and BAB share reversed halves, etc. — the worst case for
  // duplicate computation under concurrent misses.
  std::vector<MetaPath> paths;
  for (const char* spec : {"ABCBA", "ABC", "CBA", "ABA", "BAB", "BCB", "AB"}) {
    paths.push_back(*MetaPath::Parse(graph.schema(), spec));
  }
  return paths;
}

TEST(CacheMissStorm, EachKeyComputedExactlyOnce) {
  const HinGraph graph = testing::RandomTripartite(40, 50, 30, 0.15, 1234);
  const std::vector<MetaPath> paths = OverlappingPaths(graph);
  auto cache = std::make_shared<PathMatrixCache>();

  constexpr int kThreads = 8;
  constexpr int kRounds = 5;
  StartGate gate(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.ArriveAndWait();
      for (int round = 0; round < kRounds; ++round) {
        for (size_t p = 0; p < paths.size(); ++p) {
          // Rotate the starting path per thread so different keys are in
          // flight simultaneously, while every thread still hits every key.
          const MetaPath& path =
              paths[(p + static_cast<size_t>(t)) % paths.size()];
          std::shared_ptr<const SparseMatrix> left =
              cache->GetLeft(graph, path).value();
          std::shared_ptr<const SparseMatrix> right =
              cache->GetRight(graph, path).value();
          ASSERT_EQ(left->rows(), graph.NumNodes(path.SourceType()));
          ASSERT_EQ(right->rows(), graph.NumNodes(path.TargetType()));
          ASSERT_EQ(left->cols(), right->cols());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::set<std::string> keys;
  for (const MetaPath& path : paths) {
    keys.insert(PathMatrixCache::LeftKey(path));
    keys.insert(PathMatrixCache::RightKey(path));
  }
  for (const std::string& key : keys) {
    EXPECT_EQ(cache->ComputeCount(key), 1u) << key;
  }
  const PathMatrixCache::Stats stats = cache->stats();
  EXPECT_EQ(stats.entries, keys.size());
  EXPECT_EQ(stats.misses, keys.size());  // misses == computations started
  EXPECT_EQ(stats.hits + stats.misses,
            static_cast<size_t>(kThreads) * kRounds * paths.size() * 2);
}

TEST(CacheMissStorm, ConcurrentResultsMatchSequentialEngine) {
  const HinGraph graph = testing::RandomTripartite(25, 30, 20, 0.2, 77);
  const std::vector<MetaPath> paths = OverlappingPaths(graph);

  // Sequential, cache-less ground truth.
  HeteSimEngine sequential(graph);
  std::vector<DenseMatrix> expected;
  expected.reserve(paths.size());
  for (const MetaPath& path : paths) {
    expected.push_back(sequential.Compute(path).value());
  }

  // M engines across N threads, all sharing one cache, every engine using
  // the pool internally (num_threads = 2 and 0 mixed) — nested parallelism
  // over one set of pool workers.
  auto cache = std::make_shared<PathMatrixCache>();
  constexpr int kThreads = 6;
  StartGate gate(kThreads);
  std::vector<std::string> failures(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      HeteSimOptions options;
      options.num_threads = t % 3;  // 0 (all), 1 (inline), 2
      HeteSimEngine engine(graph, options, cache);
      gate.ArriveAndWait();
      for (size_t p = 0; p < paths.size(); ++p) {
        const size_t i = (p + static_cast<size_t>(t)) % paths.size();
        DenseMatrix scores = engine.Compute(paths[i]).value();
        if (!scores.ApproxEquals(expected[i], 0.0)) {  // bitwise
          failures[static_cast<size_t>(t)] =
              "thread " + std::to_string(t) + " diverged on path " +
              paths[i].ToString();
          return;
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (const std::string& failure : failures) EXPECT_EQ(failure, "");
}

TEST(CacheMissStorm, ComputePairsSharedCacheAcrossThreads) {
  const HinGraph graph = testing::RandomTripartite(30, 35, 25, 0.2, 99);
  const MetaPath path = *MetaPath::Parse(graph.schema(), "ABCBA");
  std::vector<std::pair<Index, Index>> pairs;
  for (Index a = 0; a < graph.NumNodes(0); ++a) {
    pairs.push_back({a, (a * 7 + 3) % graph.NumNodes(0)});
  }
  HeteSimEngine sequential(graph);
  const std::vector<double> expected = *sequential.ComputePairs(path, pairs);

  auto cache = std::make_shared<PathMatrixCache>();
  constexpr int kThreads = 6;
  StartGate gate(kThreads);
  std::vector<int> mismatches(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      HeteSimOptions options;
      options.num_threads = t % 2 == 0 ? 2 : 1;
      HeteSimEngine engine(graph, options, cache);
      gate.ArriveAndWait();
      const std::vector<double> scores = *engine.ComputePairs(path, pairs);
      for (size_t i = 0; i < scores.size(); ++i) {
        if (std::abs(scores[i] - expected[i]) > 1e-12) {
          ++mismatches[static_cast<size_t>(t)];
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int mismatch : mismatches) EXPECT_EQ(mismatch, 0);
  EXPECT_EQ(cache->ComputeCount(PathMatrixCache::LeftKey(path)), 1u);
  EXPECT_EQ(cache->ComputeCount(PathMatrixCache::RightKey(path)), 1u);
}

TEST(CacheMissStorm, TargetIndexBuiltExactlyOnce) {
  // Many threads ask for one right half's index at the same instant: one
  // claims and builds it (fetching its half, itself exactly once), the
  // rest wait and share the published index.
  const HinGraph graph = testing::RandomTripartite(40, 60, 30, 0.15, 31);
  const MetaPath path = *MetaPath::Parse(graph.schema(), "ABCBA");
  auto cache = std::make_shared<PathMatrixCache>();
  constexpr int kThreads = 8;
  StartGate gate(kThreads);
  std::vector<std::shared_ptr<const TargetIndex>> indexes(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.ArriveAndWait();
      indexes[static_cast<size_t>(t)] =
          cache->GetTargetIndex(graph, path, QueryContext::Background(), t % 3)
              .value();
    });
  }
  for (std::thread& thread : threads) thread.join();
  const std::string key = "IX:" + PathMatrixCache::RightKey(path);
  EXPECT_EQ(cache->ComputeCount(key), 1u);
  EXPECT_EQ(cache->ComputeCount(PathMatrixCache::RightKey(path)), 1u);
  for (const auto& index : indexes) EXPECT_EQ(index, indexes[0]);
  EXPECT_EQ(indexes[0]->num_targets(), graph.NumNodes(path.TargetType()));
}

TEST(CacheMissStorm, ClearRacingInFlightComputationsIsSafe) {
  const HinGraph graph = testing::RandomTripartite(30, 40, 20, 0.2, 55);
  const std::vector<MetaPath> paths = OverlappingPaths(graph);
  auto cache = std::make_shared<PathMatrixCache>();

  constexpr int kThreads = 4;
  constexpr int kRounds = 20;
  StartGate gate(kThreads + 1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.ArriveAndWait();
      for (int round = 0; round < kRounds; ++round) {
        const MetaPath& path =
            paths[static_cast<size_t>(round + t) % paths.size()];
        // Requesters must always receive a valid matrix, even when the
        // entry is dropped mid-computation by a concurrent Clear().
        std::shared_ptr<const SparseMatrix> left = cache->GetLeft(graph, path).value();
        ASSERT_NE(left, nullptr);
        ASSERT_EQ(left->rows(), graph.NumNodes(path.SourceType()));
      }
    });
  }
  std::thread clearer([&] {
    gate.ArriveAndWait();
    for (int i = 0; i < 10; ++i) {
      cache->Clear();
      std::this_thread::yield();
    }
  });
  for (std::thread& thread : threads) thread.join();
  clearer.join();
  // After the dust settles the cache still works and still deduplicates.
  cache->Clear();
  cache->GetLeft(graph, paths[0]).value();
  cache->GetLeft(graph, paths[0]).value();
  EXPECT_EQ(cache->ComputeCount(PathMatrixCache::LeftKey(paths[0])), 1u);
  EXPECT_EQ(cache->stats().hits, 1u);
}

TEST(PoolStress, ManyConcurrentRegionsFromManyThreads) {
  // Plain ParallelFor regions issued from several OS threads at once: the
  // single global pool must multiplex them without losing or duplicating
  // any block. (This is the server shape: many queries, one pool.)
  constexpr int kThreads = 6;
  constexpr int kRounds = 25;
  constexpr int64_t kRange = 1000;
  StartGate gate(kThreads);
  std::vector<int64_t> sums(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      gate.ArriveAndWait();
      for (int round = 0; round < kRounds; ++round) {
        std::vector<int> visited(kRange, 0);
        GrainOptions grain;
        grain.cost_per_element = 1e6;  // force multi-block dispatch
        ParallelFor(
            0, kRange, 4,
            [&visited](int64_t begin, int64_t end) {
              for (int64_t i = begin; i < end; ++i) {
                visited[static_cast<size_t>(i)] += 1;
              }
            },
            grain);
        for (int v : visited) sums[static_cast<size_t>(t)] += v;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int64_t sum : sums) EXPECT_EQ(sum, kRounds * kRange);
}

}  // namespace
}  // namespace hetesim
