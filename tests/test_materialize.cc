#include "core/materialize.h"

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "test_util.h"

namespace hetesim {
namespace {

class MaterializeTest : public ::testing::Test {
 protected:
  MaterializeTest() : graph_(testing::BuildFig4Graph()) {}
  MetaPath Path(const char* spec) const {
    return *MetaPath::Parse(graph_.schema(), spec);
  }
  HinGraph graph_;
  PathMatrixCache cache_;
};

TEST_F(MaterializeTest, FirstAccessIsMiss) {
  cache_.GetLeft(graph_, Path("APC")).value();
  PathMatrixCache::Stats stats = cache_.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST_F(MaterializeTest, SecondAccessIsHit) {
  cache_.GetLeft(graph_, Path("APC")).value();
  cache_.GetLeft(graph_, Path("APC")).value();
  PathMatrixCache::Stats stats = cache_.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST_F(MaterializeTest, SamePathDifferentObjectsShareEntry) {
  // Two MetaPath instances describing the same steps hit the same entry.
  MetaPath first = Path("APC");
  MetaPath second = Path("A-P-C");
  cache_.GetLeft(graph_, first).value();
  cache_.GetLeft(graph_, second).value();
  EXPECT_EQ(cache_.stats().entries, 1u);
  EXPECT_EQ(cache_.stats().hits, 1u);
}

TEST_F(MaterializeTest, CachedValuesMatchDirectComputation) {
  MetaPath apc = Path("APC");
  PathDecomposition d = DecomposePath(graph_, apc);
  EXPECT_TRUE(
      cache_.GetLeft(graph_, apc).value()->ApproxEquals(LeftReachMatrix(d), 1e-12));
  EXPECT_TRUE(
      cache_.GetRight(graph_, apc).value()->ApproxEquals(RightReachMatrix(d), 1e-12));
}

TEST_F(MaterializeTest, SharedPointerSurvivesClear) {
  std::shared_ptr<const SparseMatrix> kept =
      cache_.GetLeft(graph_, Path("APC")).value();
  // Move every counter Clear() resets off zero: a hit, a prefix and a
  // suffix probe that both find the cached A-P and A-P-C products
  // (A-P-C-P-A is symmetric), and a recorded partial reuse.
  cache_.GetLeft(graph_, Path("APCPA")).value();
  cache_.GetLeft(graph_, Path("APCPA")).value();
  EXPECT_FALSE(cache_.ProbePartials(Path("APCPA"), /*left_side=*/true, 2).empty());
  EXPECT_FALSE(cache_.ProbePartials(Path("APCPA"), /*left_side=*/false, 2).empty());
  cache_.RecordPartialReuse(/*left_side=*/true, 1234);
  EXPECT_EQ(cache_.stats().partial_bytes_saved, 1234u);

  cache_.Clear();
  const PathMatrixCache::Stats stats = cache_.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.failed_computes, 0u);
  EXPECT_EQ(stats.rejected_inserts, 0u);
  EXPECT_EQ(stats.accounted_bytes, 0u);
  EXPECT_EQ(stats.peak_accounted_bytes, 0u);
  EXPECT_EQ(stats.prefix_probes, 0u);
  EXPECT_EQ(stats.prefix_probe_hits, 0u);
  EXPECT_EQ(stats.suffix_probes, 0u);
  EXPECT_EQ(stats.suffix_probe_hits, 0u);
  EXPECT_EQ(stats.partial_bytes_saved, 0u);
  EXPECT_EQ(stats.store_hits, 0u);
  EXPECT_EQ(stats.store_misses, 0u);
  EXPECT_EQ(stats.store_demotions, 0u);
  EXPECT_EQ(kept->rows(), 3);  // still valid: ownership is shared
}

TEST_F(MaterializeTest, DistinctHalvesDistinctEntries) {
  cache_.GetLeft(graph_, Path("APC")).value();   // PM over 'writes'
  cache_.GetLeft(graph_, Path("CPA")).value();   // PM over '~published_in'
  cache_.GetLeft(graph_, Path("AP")).value();    // odd: edge-object half
  EXPECT_EQ(cache_.stats().entries, 3u);
  EXPECT_EQ(cache_.stats().misses, 3u);
}

TEST_F(MaterializeTest, SameHalfAcrossPathsIsOneEntry) {
  // APC and APA share the left half 'writes' under canonical keys.
  cache_.GetLeft(graph_, Path("APC")).value();
  cache_.GetLeft(graph_, Path("APA")).value();
  EXPECT_EQ(cache_.stats().entries, 1u);
  EXPECT_EQ(cache_.stats().hits, 1u);
  // Their values must of course agree.
  EXPECT_TRUE(cache_.GetLeft(graph_, Path("APC")).value()
                  ->ApproxEquals(*cache_.GetLeft(graph_, Path("APA")).value(), 0.0));
}

TEST_F(MaterializeTest, ReversePathSharesTheEntry) {
  // L of C-P-A equals R of A-P-C mathematically; the canonical half keys
  // recognize this and serve both from one entry.
  std::shared_ptr<const SparseMatrix> right_apc =
      cache_.GetRight(graph_, Path("APC")).value();
  std::shared_ptr<const SparseMatrix> left_cpa =
      cache_.GetLeft(graph_, Path("APC").Reverse()).value();
  EXPECT_TRUE(right_apc->ApproxEquals(*left_cpa, 1e-12));
  EXPECT_EQ(cache_.stats().entries, 1u);
  EXPECT_EQ(cache_.stats().hits, 1u);
}

TEST_F(MaterializeTest, SharedLeftHalfAcrossDifferentFullPaths) {
  // A-P-C-P-A and A-P-C-P-C decompose to the same left half (the A-P-C
  // product): one entry, one hit.
  cache_.GetLeft(graph_, Path("APCPA")).value();
  cache_.GetLeft(graph_, Path("APCPC")).value();
  EXPECT_EQ(cache_.stats().entries, 1u);
  EXPECT_EQ(cache_.stats().hits, 1u);
}

TEST_F(MaterializeTest, KeysAreCanonical) {
  MetaPath apcpa = Path("APCPA");
  EXPECT_EQ(PathMatrixCache::LeftKey(apcpa), PathMatrixCache::RightKey(apcpa));
  // Odd paths embed the decomposed middle step in the key, on both sides.
  MetaPath ap = Path("AP");
  EXPECT_NE(PathMatrixCache::LeftKey(ap), PathMatrixCache::RightKey(ap));
}

TEST_F(MaterializeTest, ConcurrentAccessIsSafeAndConsistent) {
  // Hammer the cache from many threads over a mix of paths; every thread
  // must observe identical matrices and the cache must end with exactly
  // one entry per distinct half.
  const std::vector<std::string> specs = {"APC", "APA", "APCPA", "AP", "CPA"};
  std::vector<std::thread> workers;
  std::atomic<int> mismatches{0};
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([this, &specs, &mismatches, t] {
      for (int round = 0; round < 50; ++round) {
        const std::string& spec = specs[(t + round) % specs.size()];
        MetaPath path = *MetaPath::Parse(graph_.schema(), spec);
        std::shared_ptr<const SparseMatrix> left = cache_.GetLeft(graph_, path).value();
        std::shared_ptr<const SparseMatrix> again =
            cache_.GetLeft(graph_, path).value();
        if (!left->ApproxEquals(*again, 0.0)) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(mismatches.load(), 0);
  // Distinct left-half keys across the five paths.
  std::set<std::string> keys;
  for (const std::string& spec : specs) {
    keys.insert(PathMatrixCache::LeftKey(*MetaPath::Parse(graph_.schema(), spec)));
  }
  EXPECT_EQ(cache_.stats().entries, keys.size());
  PathMatrixCache::Stats stats = cache_.stats();
  EXPECT_EQ(stats.hits + stats.misses, 8u * 50u * 2u);
}

}  // namespace
}  // namespace hetesim
