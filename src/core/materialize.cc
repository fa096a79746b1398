#include "core/materialize.h"

#include <algorithm>
#include <chrono>
#include <type_traits>

#include "common/fault_injection.h"
#include "common/metrics.h"
#include "common/string_util.h"
#include "core/frontier.h"
#include "matrix/cost_model.h"
#include "matrix/ops.h"
#include "matrix/spgemm.h"
#include "store/store.h"

namespace hetesim {

namespace {

/// Process-wide cache instruments (DESIGN.md §12), resolved once. All
/// PathMatrixCache instances share them: counters aggregate across caches
/// and the bytes gauge tracks the net accounted total, so per-instance
/// figures stay available through `stats()`.
struct CacheMetrics {
  Counter& hits;
  Counter& misses;
  Counter& evictions;
  Counter& failed_computes;
  Counter& rejected_inserts;
  Gauge& accounted_bytes;
  Counter& prefix_probes;
  Counter& prefix_probe_hits;
  Counter& suffix_probes;
  Counter& suffix_probe_hits;
  Counter& partial_reuse_bytes;
  Counter& store_demotions;
};

CacheMetrics& GlobalCacheMetrics() {
  static CacheMetrics metrics{
      MetricsRegistry::Global().GetCounter("hetesim_cache_hits_total"),
      MetricsRegistry::Global().GetCounter("hetesim_cache_misses_total"),
      MetricsRegistry::Global().GetCounter("hetesim_cache_evictions_total"),
      MetricsRegistry::Global().GetCounter(
          "hetesim_cache_failed_computes_total"),
      MetricsRegistry::Global().GetCounter(
          "hetesim_cache_rejected_inserts_total"),
      MetricsRegistry::Global().GetGauge("hetesim_cache_accounted_bytes"),
      MetricsRegistry::Global().GetCounter(
          "hetesim_cache_prefix_probes_total"),
      MetricsRegistry::Global().GetCounter(
          "hetesim_cache_prefix_probe_hits_total"),
      MetricsRegistry::Global().GetCounter(
          "hetesim_cache_suffix_probes_total"),
      MetricsRegistry::Global().GetCounter(
          "hetesim_cache_suffix_probe_hits_total"),
      MetricsRegistry::Global().GetCounter(
          "hetesim_cache_partial_reuse_bytes_total"),
      MetricsRegistry::Global().GetCounter("hetesim_store_demotions_total"),
  };
  return metrics;
}

/// Joins the rendered steps in `[begin, end)` of `path` with commas.
std::string StepRangeString(const MetaPath& path, int begin, int end) {
  std::vector<std::string> parts;
  parts.reserve(static_cast<size_t>(end - begin));
  for (int i = begin; i < end; ++i) {
    parts.push_back(path.schema().StepToString(path.StepAt(i)));
  }
  return Join(parts, ",");
}

/// Joins the *inverted, reversed* steps in `[begin, end)` — the canonical
/// rendering of walking that segment backwards.
std::string InverseStepRangeString(const MetaPath& path, int begin, int end) {
  std::vector<std::string> parts;
  parts.reserve(static_cast<size_t>(end - begin));
  for (int i = end - 1; i >= begin; --i) {
    parts.push_back(path.schema().StepToString(path.StepAt(i).Inverse()));
  }
  return Join(parts, ",");
}

/// How long a waiter sleeps between cancellation checks while blocked on an
/// in-flight computation. Bounds cancellation latency for waiters; the
/// computing thread itself polls at chunk granularity.
constexpr std::chrono::milliseconds kWaiterPollInterval{5};

}  // namespace

std::string PathMatrixCache::LeftKey(const MetaPath& path) {
  const int l = path.length();
  if (l % 2 == 0) {
    // Even: the left half is the plain reachable matrix of the prefix, so
    // it shares its entry with the left half of ANY path starting with the
    // same steps.
    return "PM:" + StepRangeString(path, 0, l / 2);
  }
  // Odd: prefix transitions followed by the source half of the decomposed
  // middle atomic relation (Definition 6).
  return "PM:" + StepRangeString(path, 0, l / 2) + "|EO+:" +
         path.schema().StepToString(path.StepAt(l / 2));
}

std::string PathMatrixCache::RightKey(const MetaPath& path) {
  const int l = path.length();
  if (l % 2 == 0) {
    return "PM:" + InverseStepRangeString(path, l / 2, l);
  }
  return "PM:" + InverseStepRangeString(path, l / 2 + 1, l) + "|EO-:" +
         path.schema().StepToString(path.StepAt(l / 2));
}

PathMatrixCache::~PathMatrixCache() {
  // The entries' budget reservations release themselves; the process-wide
  // gauge has to be told.
  MutexLock lock(mutex_);
  if (MetricsEnabled()) {
    GlobalCacheMetrics().accounted_bytes.Add(
        -static_cast<int64_t>(accounted_bytes_));
  }
}

Result<std::shared_ptr<const SparseMatrix>> PathMatrixCache::GetLeft(
    const HinGraph& graph, const MetaPath& path, const QueryContext& ctx,
    int num_threads) {
  return GetOrCompute<SparseMatrix>(
      LeftKey(path), ctx, [this, &graph, &path, &ctx, num_threads]() {
        return ComputeHalf(graph, path, /*left_side=*/true, ctx, num_threads);
      });
}

Result<std::shared_ptr<const SparseMatrix>> PathMatrixCache::GetRight(
    const HinGraph& graph, const MetaPath& path, const QueryContext& ctx,
    int num_threads) {
  return GetOrCompute<SparseMatrix>(
      RightKey(path), ctx, [this, &graph, &path, &ctx, num_threads]() {
        return ComputeHalf(graph, path, /*left_side=*/false, ctx, num_threads);
      });
}

Result<SparseMatrix> PathMatrixCache::ComputeHalf(const HinGraph& graph,
                                                  const MetaPath& path,
                                                  bool left_side,
                                                  const QueryContext& ctx,
                                                  int num_threads) {
  // The ad-hoc planning happens on a miss only, so a resident key stays a
  // plain O(1) hit and probes are only counted when a never-seen half
  // actually has to be materialized. `GetOrCompute` runs this outside the
  // cache lock, so the re-entrant `ProbePartials` call is safe.
  const std::vector<SparseMatrix> chain = DecomposeHalf(graph, path, left_side);
  std::vector<PartialHit> hits =
      ProbePartials(path, left_side, static_cast<int>(chain.size()));
  // Score each candidate plan: estimated Gustavson flops of folding the
  // hops it leaves uncovered, left-to-right. A 1-step partial is that
  // step's own transition matrix and ties the plain product, so only a
  // partial of two or more steps can win.
  auto plan_flops = [&chain](MatrixEstimate acc, size_t next) {
    double flops = 0.0;
    // Planning loop over the meta-path length (a handful of hops).
    for (size_t s = next; s < chain.size(); ++s) {  // hetesim-lint: allow(cancel-poll)
      const MatrixEstimate step = EstimateOf(chain[s]);
      flops += EstimateProductFlops(acc, step);
      acc = EstimateProduct(acc, step);
    }
    return flops;
  };
  PartialHit best;
  if (!chain.empty()) {
    double best_flops = plan_flops(EstimateOf(chain[0]), 1);
    // One candidate plan per cached partial — at most chain-length entries.
    for (const PartialHit& hit : hits) {  // hetesim-lint: allow(cancel-poll)
      if (hit.matrix == nullptr || hit.steps_covered < 1 ||
          static_cast<size_t>(hit.steps_covered) > chain.size()) {
        continue;
      }
      const double flops = plan_flops(EstimateOf(*hit.matrix),
                                      static_cast<size_t>(hit.steps_covered));
      if (flops < best_flops) {
        best_flops = flops;
        best = hit;
      }
    }
  }
  if (best.matrix == nullptr) return MultiplyChain(chain, num_threads, ctx);
  SparseMatrix folded = *best.matrix;
  for (size_t s = static_cast<size_t>(best.steps_covered); s < chain.size();
       ++s) {
    HETESIM_ASSIGN_OR_RETURN(
        folded, MultiplySparseAdaptive(folded, chain[s], num_threads, ctx));
  }
  RecordPartialReuse(left_side, best.matrix->ApproxBytes());
  return folded;
}

Result<std::shared_ptr<const TargetIndex>> PathMatrixCache::GetTargetIndex(
    const HinGraph& graph, const MetaPath& path, const QueryContext& ctx,
    int num_threads) {
  // The half is fetched inside the callback, outside the cache lock, so a
  // resident index is a plain hit and a resident half is not re-fetched.
  return GetOrCompute<TargetIndex>(
      "IX:" + RightKey(path), ctx,
      [this, &graph, &path, &ctx, num_threads]() -> Result<TargetIndex> {
        HETESIM_ASSIGN_OR_RETURN(std::shared_ptr<const SparseMatrix> right,
                                 GetRight(graph, path, ctx, num_threads));
        return TargetIndex::Build(*right);
      });
}

void PathMatrixCache::SetMemoryBudget(std::shared_ptr<MemoryBudget> budget,
                                      size_t max_bytes) {
  MutexLock lock(mutex_);
  budget_ = std::move(budget);
  max_bytes_ = max_bytes;
}

void PathMatrixCache::AttachStore(std::shared_ptr<MatrixStore> store) {
  MutexLock lock(mutex_);
  store_ = std::move(store);
}

std::shared_ptr<MatrixStore> PathMatrixCache::store() const {
  MutexLock lock(mutex_);
  return store_;
}

Status PathMatrixCache::FlushToStore() {
  std::shared_ptr<MatrixStore> store;
  // (key, matrix, slot) — the slot pointer lets us mark the entry as
  // persisted afterwards so a later eviction skips the redundant rewrite.
  std::vector<std::tuple<std::string, std::shared_ptr<const SparseMatrix>,
                         std::shared_ptr<Slot>>>
      to_write;
  {
    MutexLock lock(mutex_);
    store = store_;
    if (store == nullptr) {
      return Status::FailedPrecondition("no store attached to the cache");
    }
    for (const auto& [key, slot] : entries_) {
      if (!slot->ready || slot->from_store) continue;
      std::shared_ptr<const SparseMatrix> matrix = MatrixOf(*slot);
      if (matrix == nullptr) continue;  // indexes are rebuilt, not stored
      to_write.emplace_back(key, std::move(matrix), slot);
    }
  }
  for (auto& [key, matrix, slot] : to_write) {
    if (!store->Contains(key)) {
      HETESIM_RETURN_NOT_OK(store->Put(key, *matrix));
    }
    MutexLock lock(mutex_);
    slot->from_store = true;
  }
  return Status::OK();
}

PathMatrixCache::Stats PathMatrixCache::stats() const {
  MutexLock lock(mutex_);
  Stats s;
  s.hits = hits_;
  s.misses = misses_;
  s.entries = entries_.size();
  s.evictions = evictions_;
  s.failed_computes = failed_computes_;
  s.rejected_inserts = rejected_inserts_;
  s.accounted_bytes = accounted_bytes_;
  s.peak_accounted_bytes = peak_accounted_bytes_;
  s.prefix_probes = prefix_probes_;
  s.prefix_probe_hits = prefix_probe_hits_;
  s.suffix_probes = suffix_probes_;
  s.suffix_probe_hits = suffix_probe_hits_;
  s.partial_bytes_saved = partial_bytes_saved_;
  s.store_hits = store_hits_;
  s.store_misses = store_misses_;
  s.store_demotions = store_demotions_;
  return s;
}

std::vector<PathMatrixCache::PartialHit> PathMatrixCache::ProbePartials(
    const MetaPath& path, bool left_side, int max_steps) {
  // Candidate (key, chain matrices covered) pairs, longest cover first. The
  // full half key is listed explicitly only for odd paths — for even ones it
  // coincides with the longest step-prefix key below. A step-prefix key is
  // the even left half of the sub-path doubled, so the halves of popular
  // short paths are found here automatically.
  const int l = path.length();
  const int half = l / 2;
  std::vector<std::pair<std::string, int>> candidates;
  if (l % 2 == 1) {
    candidates.emplace_back(left_side ? LeftKey(path) : RightKey(path),
                            half + 1);
  }
  for (int j = half; j >= 1; --j) {
    candidates.emplace_back(
        left_side ? "PM:" + StepRangeString(path, 0, j)
                  : "PM:" + InverseStepRangeString(path, l - j, l),
        j);
  }

  std::vector<PartialHit> hits;
  {
    MutexLock lock(mutex_);
    for (const auto& [key, covered] : candidates) {
      if (covered > max_steps) continue;
      auto it = entries_.find(key);
      if (it == entries_.end() || !it->second->ready) continue;
      std::shared_ptr<const SparseMatrix> matrix = MatrixOf(*it->second);
      if (matrix == nullptr) continue;
      TouchLocked(*it->second);  // probed partials are about to be reused
      hits.push_back({std::move(matrix), covered});
    }
    if (left_side) {
      ++prefix_probes_;
      if (!hits.empty()) ++prefix_probe_hits_;
    } else {
      ++suffix_probes_;
      if (!hits.empty()) ++suffix_probe_hits_;
    }
  }
  if (MetricsEnabled()) {
    CacheMetrics& metrics = GlobalCacheMetrics();
    (left_side ? metrics.prefix_probes : metrics.suffix_probes).Increment();
    if (!hits.empty()) {
      (left_side ? metrics.prefix_probe_hits : metrics.suffix_probe_hits)
          .Increment();
    }
  }
  return hits;
}

void PathMatrixCache::RecordPartialReuse(bool left_side, size_t bytes_saved) {
  (void)left_side;
  {
    MutexLock lock(mutex_);
    partial_bytes_saved_ += bytes_saved;
  }
  if (MetricsEnabled()) {
    GlobalCacheMetrics().partial_reuse_bytes.Increment(
        static_cast<uint64_t>(bytes_saved));
  }
}

void PathMatrixCache::Clear() {
  MutexLock lock(mutex_);
  // Release budget charges deterministically here: a slot kept alive by a
  // concurrent waiter's shared_ptr must not keep its bytes reserved after
  // the cache has dropped it.
  for (auto& [key, slot] : entries_) {
    slot->reservation.reset();
  }
  entries_.clear();
  compute_counts_.clear();
  // Queued demotion victims die with the entries: Clear is a full reset,
  // and writing them after the fact would resurrect state the caller asked
  // to drop.
  pending_demotions_.clear();
  clock_ = 0;
  hits_ = 0;
  misses_ = 0;
  evictions_ = 0;
  failed_computes_ = 0;
  rejected_inserts_ = 0;
  prefix_probes_ = 0;
  prefix_probe_hits_ = 0;
  suffix_probes_ = 0;
  suffix_probe_hits_ = 0;
  partial_bytes_saved_ = 0;
  store_hits_ = 0;
  store_misses_ = 0;
  store_demotions_ = 0;
  if (MetricsEnabled()) {
    GlobalCacheMetrics().accounted_bytes.Add(
        -static_cast<int64_t>(accounted_bytes_));
  }
  accounted_bytes_ = 0;
  peak_accounted_bytes_ = 0;
}

template <typename T>
Result<std::shared_ptr<const T>> PathMatrixCache::GetOrCompute(
    const std::string& key, const QueryContext& ctx,
    const std::function<Result<T>()>& compute) {
  // Only matrices go to the persistent tier: an index is rebuilt from its
  // cached half instead.
  constexpr bool kPersisted = std::is_same_v<T, SparseMatrix>;
  for (;;) {
    HETESIM_RETURN_NOT_OK(ctx.CheckAlive());
    std::promise<Result<Entry>> promise;
    std::shared_ptr<Slot> slot;
    std::shared_ptr<MatrixStore> store;  // captured at claim time
    bool claimed = false;
    {
      MutexLock lock(mutex_);
      auto it = entries_.find(key);
      if (it != entries_.end()) {
        ++hits_;
        if (MetricsEnabled()) GlobalCacheMetrics().hits.Increment();
        slot = it->second;
        if (slot->ready) TouchLocked(*slot);
      } else {
        // First requester claims the key; everyone arriving from here on
        // finds the slot above and waits, so each key is computed at most
        // once per residency. The claimant alone probes the store below,
        // which is what makes disk reads exactly-once per residency too.
        ++misses_;
        if (MetricsEnabled()) GlobalCacheMetrics().misses.Increment();
        slot = std::make_shared<Slot>();
        slot->future = promise.get_future().share();
        entries_.emplace(key, slot);
        store = store_;
        claimed = true;
      }
    }

    if (!claimed) {
      // Wait without holding the map lock — concurrent requests for other
      // keys proceed freely. The wait is bounded by OUR deadline and polled
      // for OUR cancellation; abandoning it does not poison the slot — the
      // computing thread still publishes for later callers.
      for (;;) {
        HETESIM_RETURN_NOT_OK(ctx.CheckAlive());
        if (slot->future.wait_for(kWaiterPollInterval) ==
            std::future_status::ready) {
          break;
        }
      }
      Result<Entry> published = slot->future.get();
      if (published.ok()) return std::get<std::shared_ptr<const T>>(*published);
      // The computation failed under its claimant's context (deadline,
      // cancellation, or an injected fault). Remove the dead slot if it is
      // still installed — pointer identity guards against erasing a
      // successor — then retry under our own context.
      {
        MutexLock lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end() && it->second == slot) entries_.erase(it);
      }
      continue;
    }

    // We claimed the key. Probe the persistent tier first: a promoted
    // matrix is served without recomputation (and without touching
    // ComputeCount — reading back is not a computation). The store
    // validates checksum and structure; anything wrong there surfaces as a
    // plain NotFound-style miss and we fall through to compute.
    if constexpr (kPersisted) {
      if (store != nullptr) {
        Result<SparseMatrix> promoted = store->Get(key);
        {
          MutexLock lock(mutex_);
          if (promoted.ok()) {
            ++store_hits_;
          } else {
            ++store_misses_;
          }
        }
        if (promoted.ok()) {
          auto matrix =
              std::make_shared<const SparseMatrix>(*std::move(promoted));
          // Re-readable for free-ish, so no recompute cost.
          Publish(key, slot, promise, matrix, /*compute_seconds=*/0.0,
                  /*from_store=*/true);
          return matrix;
        }
      }
    }

    // Store miss (or no store): compute outside the lock.
    {
      MutexLock lock(mutex_);
      ++compute_counts_[key];
    }
    const auto start = std::chrono::steady_clock::now();
    Result<T> computed = compute();
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    if (!computed.ok()) {
      // Publish the error FIRST so waiters stop blocking on it, then unlink
      // the slot so the next caller recomputes.
      promise.set_value(computed.status());
      if (MetricsEnabled()) GlobalCacheMetrics().failed_computes.Increment();
      {
        MutexLock lock(mutex_);
        ++failed_computes_;
        auto it = entries_.find(key);
        if (it != entries_.end() && it->second == slot) entries_.erase(it);
      }
      return computed.status();
    }

    auto value = std::make_shared<const T>(*std::move(computed));
    Publish(key, slot, promise, value, seconds, /*from_store=*/false);
    return value;
  }
}

void PathMatrixCache::Publish(const std::string& key,
                              const std::shared_ptr<Slot>& slot,
                              std::promise<Result<Entry>>& promise, Entry value,
                              double compute_seconds, bool from_store) {
  const size_t bytes =
      std::visit([](const auto& held) { return held->ApproxBytes(); }, value);
  // Resolve the future before taking the lock, so waiters are released
  // first.
  promise.set_value(Result<Entry>(std::move(value)));
  {
    MutexLock lock(mutex_);
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second == slot) {
      slot->bytes = bytes;
      slot->compute_seconds = compute_seconds;
      slot->from_store = from_store;
      if (AdmitLocked(*slot)) {
        slot->ready = true;
      } else {
        // Does not fit even after eviction: serve uncached.
        ++rejected_inserts_;
        if (MetricsEnabled()) {
          GlobalCacheMetrics().rejected_inserts.Increment();
        }
        entries_.erase(it);
      }
    }
    // else: Clear() raced us and already dropped the slot; the value is
    // still delivered to us and any waiters, just not retained.
  }
  FlushPendingDemotions();
}

std::shared_ptr<const SparseMatrix> PathMatrixCache::MatrixOf(const Slot& slot) {
  // Ready slots resolve immediately.
  const Result<Entry>& entry = slot.future.get();
  if (!entry.ok()) return nullptr;
  const auto* matrix = std::get_if<std::shared_ptr<const SparseMatrix>>(&*entry);
  return matrix != nullptr ? *matrix : nullptr;
}

bool PathMatrixCache::AdmitLocked(Slot& slot) {
  if (HETESIM_FAULT_POINT("cache.insert")) return false;
  TouchLocked(slot);
  if (budget_ != nullptr) {
    while (accounted_bytes_ + slot.bytes > max_bytes_) {
      if (!EvictOneLocked()) return false;
    }
    while (!budget_->TryReserve(slot.bytes)) {
      if (!EvictOneLocked()) return false;
    }
    slot.reservation = MemoryReservation(budget_.get(), slot.bytes);
  }
  accounted_bytes_ += slot.bytes;
  peak_accounted_bytes_ = std::max(peak_accounted_bytes_, accounted_bytes_);
  if (MetricsEnabled()) {
    GlobalCacheMetrics().accounted_bytes.Add(
        static_cast<int64_t>(slot.bytes));
  }
  return true;
}

bool PathMatrixCache::EvictOneLocked() {
  auto victim = entries_.end();
  for (auto it = entries_.begin(); it != entries_.end(); ++it) {
    if (!it->second->ready) continue;  // never evict in-flight entries
    if (victim == entries_.end() ||
        it->second->priority < victim->second->priority) {
      victim = it;
    }
  }
  if (victim == entries_.end()) return false;
  Slot& slot = *victim->second;
  // Demote instead of drop: a victim not yet on disk is queued for the
  // store (no IO under the lock — FlushPendingDemotions writes it after
  // the caller releases mutex_). Ready slots resolve immediately.
  if (store_ != nullptr && !slot.from_store) {
    if (std::shared_ptr<const SparseMatrix> matrix = MatrixOf(slot)) {
      pending_demotions_.emplace_back(victim->first, std::move(matrix));
    }
  }
  // GreedyDual-Size aging: the clock rises to the evicted priority, so
  // long-untouched survivors gradually lose their head start.
  clock_ = std::max(clock_, slot.priority);
  accounted_bytes_ -= slot.bytes;
  slot.reservation.reset();
  ++evictions_;
  if (MetricsEnabled()) {
    CacheMetrics& metrics = GlobalCacheMetrics();
    metrics.evictions.Increment();
    metrics.accounted_bytes.Add(-static_cast<int64_t>(slot.bytes));
  }
  entries_.erase(victim);
  return true;
}

void PathMatrixCache::FlushPendingDemotions() {
  std::vector<std::pair<std::string, std::shared_ptr<const SparseMatrix>>>
      pending;
  std::shared_ptr<MatrixStore> store;
  {
    MutexLock lock(mutex_);
    if (pending_demotions_.empty()) return;
    pending.swap(pending_demotions_);
    store = store_;
  }
  if (store == nullptr) return;  // detached while victims were queued
  size_t written = 0;
  for (const auto& [key, matrix] : pending) {
    // Best-effort: the entry is already evicted either way; if the write
    // fails (disk full, injected store.write.alloc) the next miss simply
    // recomputes, which is the pre-store behavior.
    if (store->Put(key, *matrix).ok()) ++written;
  }
  if (written == 0) return;
  {
    MutexLock lock(mutex_);
    store_demotions_ += written;
  }
  if (MetricsEnabled()) {
    GlobalCacheMetrics().store_demotions.Increment(written);
  }
}

void PathMatrixCache::TouchLocked(Slot& slot) {
  // GreedyDual-Size priority: recency (clock_) plus recompute cost per
  // byte, so a bulky-but-cheap product is evicted before a compact one
  // that took a long SpGEMM chain to build.
  const double cost_per_byte =
      slot.compute_seconds / static_cast<double>(std::max<size_t>(slot.bytes, 1));
  slot.priority = clock_ + cost_per_byte;
}

size_t PathMatrixCache::ComputeCount(const std::string& key) const {
  MutexLock lock(mutex_);
  auto it = compute_counts_.find(key);
  if (it == compute_counts_.end()) return 0;
  return it->second;
}

}  // namespace hetesim
