// Store stress tier: miss-storms and eviction churn against the two-tier
// cache, designed to run under TSan (it is part of every sanitizer CI leg,
// like the other `stress` tests).
//
// Claims proven here, backing DESIGN.md §16:
//  * a miss-storm on a cold-but-persisted key performs EXACTLY ONE disk
//    read — the claimant probes the store, everyone else blocks on the
//    in-flight slot — and zero computations;
//  * sustained promote/demote churn under a one-entry budget never
//    recomputes a persisted key, never reads the store without recording a
//    store hit, and never lets accounted bytes exceed the budget;
//  * when the cache lets go, the shared MemoryBudget balances back to
//    exactly zero — no leaked reservations under any interleaving.

#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/materialize.h"
#include "store/store.h"
#include "test_util.h"

namespace hetesim {
namespace {

namespace fs = std::filesystem;

constexpr int kThreads = 8;

/// A fresh per-test store directory under the gtest temp root.
fs::path FreshDir(const char* tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  const fs::path dir =
      fs::path(::testing::TempDir()) /
      (std::string("hetesim_store_stress_") + info->name() + "_" + tag);
  fs::remove_all(dir);
  return dir;
}

class StoreStressTest : public ::testing::Test {
 protected:
  StoreStressTest() : graph_(testing::BuildFig4Graph()) {}

  MetaPath Path(const char* spec) const {
    return *MetaPath::Parse(graph_.schema(), spec);
  }

  std::shared_ptr<MatrixStore> OpenStore(const fs::path& dir) {
    StoreOptions options;
    options.directory = dir.string();
    options.graph_digest = 42;
    Result<std::unique_ptr<MatrixStore>> store = MatrixStore::Open(options);
    HETESIM_CHECK(store.ok());
    return std::shared_ptr<MatrixStore>(std::move(*store));
  }

  /// Computes the left halves of `specs` once and flushes them to `store`,
  /// returning the byte size of the largest (the one-entry budget).
  size_t MaterializeLefts(const std::shared_ptr<MatrixStore>& store,
                          const std::vector<const char*>& specs) {
    PathMatrixCache warm;
    warm.AttachStore(store);
    size_t largest = 0;
    for (const char* spec : specs) {
      largest =
          std::max(largest, warm.GetLeft(graph_, Path(spec)).value()->ApproxBytes());
    }
    HETESIM_CHECK(warm.FlushToStore().ok());
    return largest;
  }

  HinGraph graph_;
};

TEST_F(StoreStressTest, MissStormOnColdEntryReadsDiskExactlyOnce) {
  auto store = OpenStore(FreshDir("storm"));
  const size_t budget_bytes = MaterializeLefts(store, {"APC"});

  // Fresh cache, entry only on disk: 8 threads race the same cold key.
  PathMatrixCache cache;
  auto budget = std::make_shared<MemoryBudget>(budget_bytes);
  cache.SetMemoryBudget(budget);
  cache.AttachStore(store);
  const std::string key = PathMatrixCache::LeftKey(Path("APC"));

  std::atomic<bool> start{false};
  std::vector<std::shared_ptr<const SparseMatrix>> results(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      results[static_cast<size_t>(t)] = cache.GetLeft(graph_, Path("APC")).value();
    });
  }
  start.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  // One claimant probed the store; everyone else waited on the in-flight
  // slot. Nothing was computed — reading back is not a computation.
  EXPECT_EQ(store->ReadCount(key), 1u);
  EXPECT_EQ(cache.ComputeCount(key), 0u);
  const PathMatrixCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.store_hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<size_t>(kThreads) - 1u);
  for (const auto& result : results) {
    ASSERT_NE(result, nullptr);
    EXPECT_EQ(result, results[0]);  // everyone shares the one promotion
  }
}

TEST_F(StoreStressTest, PromoteDemoteChurnNeverRecomputesAndBalancesBudget) {
  const std::vector<const char*> specs = {"APC", "CPA", "APCPA", "CPC"};
  auto store = OpenStore(FreshDir("churn"));
  const size_t budget_bytes = MaterializeLefts(store, specs);

  // A budget that holds one half at a time: every access to a non-resident
  // key promotes it and demotes the victim, concurrently across 8 threads
  // walking the working set with different strides.
  PathMatrixCache cache;
  auto budget = std::make_shared<MemoryBudget>(budget_bytes);
  cache.SetMemoryBudget(budget);
  cache.AttachStore(store);

  constexpr int kRounds = 40;
  std::atomic<bool> start{false};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      while (!start.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int round = 0; round < kRounds; ++round) {
        const size_t index =
            static_cast<size_t>(round * (t + 1)) % specs.size();
        std::shared_ptr<const SparseMatrix> matrix =
            cache.GetLeft(graph_, Path(specs[index])).value();
        ASSERT_NE(matrix, nullptr);
      }
    });
  }
  start.store(true, std::memory_order_release);
  for (std::thread& thread : threads) thread.join();

  // Every key lives in the store the whole time, so nothing is ever
  // computed, no matter how the promotions and demotions interleave.
  for (const char* spec : specs) {
    EXPECT_EQ(cache.ComputeCount(PathMatrixCache::LeftKey(Path(spec))), 0u)
        << spec;
  }
  const PathMatrixCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, stats.store_hits + stats.store_misses);
  EXPECT_EQ(stats.store_misses, 0u);
  // Each store hit is one disk read (the claimant's); no hidden reads.
  // Distinct specs can share a canonical key (CPA and CPC both decompose
  // to the C-P half), so sum reads over unique keys.
  std::set<std::string> keys;
  for (const char* spec : specs) keys.insert(PathMatrixCache::LeftKey(Path(spec)));
  size_t reads = 0;
  for (const std::string& key : keys) reads += store->ReadCount(key);
  EXPECT_EQ(reads, stats.store_hits);
  // The budget is a hard cap throughout and balances to zero when the
  // cache releases everything.
  EXPECT_LE(stats.peak_accounted_bytes, budget_bytes);
  EXPECT_EQ(budget->used_bytes(), stats.accounted_bytes);
  cache.Clear();
  EXPECT_EQ(budget->used_bytes(), 0u);
}

}  // namespace
}  // namespace hetesim
