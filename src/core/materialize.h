#ifndef HETESIM_CORE_MATERIALIZE_H_
#define HETESIM_CORE_MATERIALIZE_H_

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <string>
#include <unordered_map>
#include <variant>

#include "common/annotations.h"
#include "common/context.h"
#include "common/mutex.h"
#include "core/path_matrix.h"
#include "hin/graph.h"
#include "hin/metapath.h"
#include "matrix/sparse.h"

namespace hetesim {

class MatrixStore;   // store/store.h; optional second tier
struct TargetIndex;  // frontier.h

/// \brief Cache of materialized reachable-probability products, the
/// Section 4.6 acceleration: "for frequently-used relevance paths, the
/// relatedness matrix can be calculated off-line" and "the concatenation of
/// partially materialized reachable probability matrices also helps to
/// fasten the computation".
///
/// Entries are keyed by the *half's* canonical step string (see `LeftKey`
/// / `RightKey`), so partial products are shared across every full path
/// whose decomposition produces them: the left half of A-P-C-P-A serves
/// A-P-C-P-C, and the right half of P equals the left half of P reversed.
/// An even half is the plain reachable matrix of its steps, keyed
/// `"PM:" + steps`, so it also serves as a prefix partial of longer halves.
/// Thread-safe; share one cache across engines via `std::shared_ptr`.
///
/// Concurrency guarantees:
///  * Each key is computed **at most once per residency**, even under a
///    miss-storm where many threads request the same not-yet-materialized
///    half at the same instant: the first requester claims the key and
///    computes; later requesters block on the in-flight result instead of
///    duplicating the (potentially huge) SpGEMM chain. `ComputeCount(key)`
///    exposes the per-key computation count so tests can assert this (it
///    stays exactly 1 unless the entry is evicted or its computation fails
///    and is legitimately redone).
///  * Different keys never serialize against each other — the map lock is
///    only held for lookup/insert/eviction bookkeeping, never during a
///    computation or while waiting on one.
///  * `Clear()` during an in-flight computation is safe: the computation
///    finishes against its detached slot and its waiters still receive the
///    matrix; the cache simply no longer retains it.
///
/// Failure semantics (see DESIGN.md §9):
///  * A *waiter* whose deadline expires or that is cancelled abandons the
///    shared future without poisoning the slot — the computing thread still
///    publishes, and later callers get the cached matrix.
///  * A *computation* that fails (its claimant's deadline/cancellation, an
///    injected allocation fault) publishes the error to current waiters and
///    removes the slot, so the key is recomputed by the next caller whose
///    own context is still alive — per-key recompute-or-propagate, never a
///    permanently wedged entry.
///
/// Next to the products it holds each right half's `TargetIndex`, under
/// `"IX:" + RightKey(path)`, built by `GetTargetIndex` through the same
/// claim/wait/publish/admit/evict path and counted in the same `Stats`; an
/// index is never written to or read from the store, since it is rebuilt
/// from its half.
///
/// Memory budgeting: attach a `MemoryBudget` via `SetMemoryBudget` and
/// every materialized matrix or index is charged (`ApproxBytes`) before
/// admission. Admission that would exceed the limit first evicts
/// ready entries in cost-aware-LRU order (GreedyDual-Size: lowest
/// `clock + compute_seconds / bytes` first, so cheap-to-recompute bulky
/// halves go before expensive compact ones); if the matrix still cannot
/// fit it is returned to callers *uncached*. Accounted bytes therefore
/// never exceed the budget limit, which is the `--max-cache-mb` guarantee.
/// In-flight entries are never evicted.
///
/// Two-tier operation: with a `MatrixStore` attached (`AttachStore`), the
/// cache becomes the RAM tier over a persistent compressed tier. A miss
/// probes the store before recomputing (the promoted matrix is checksum-
/// validated by the store and budget-charged through the normal admission
/// path, with `ComputeCount` untouched — serving from disk is not a
/// computation), and eviction *demotes* entries to the store instead of
/// dropping them, so the working set survives restarts and budgets smaller
/// than the working set stop costing recomputes. Store IO never happens
/// under the cache mutex: demotion victims are queued under the lock and
/// written after it is released, on the thread that triggered the
/// admission (see DESIGN.md §16).
class PathMatrixCache {
 public:
  PathMatrixCache() = default;
  /// Releases the entries' accounted bytes from the process-wide bytes
  /// gauge, as `Clear()` does.
  ~PathMatrixCache();
  PathMatrixCache(const PathMatrixCache&) = delete;
  PathMatrixCache& operator=(const PathMatrixCache&) = delete;

  /// Canonical cache key of `path`'s left reachable matrix (the `PM_PL` of
  /// Definition 5's decomposition). Equal keys <=> equal matrices.
  static std::string LeftKey(const MetaPath& path);
  /// Canonical key of the right reachable matrix `PM_(PR^-1)`.
  static std::string RightKey(const MetaPath& path);

  /// Left reachable matrix `PM_PL` of the decomposition of `path`
  /// (|source type| x |middle|), computed on first use. A miss probes for
  /// cached partial products covering a prefix of the half, scores each
  /// candidate plan with the cost model's product-flops estimate, and folds
  /// the cheapest one in, computing only the uncovered tail hops; with no
  /// profitable partial it multiplies the half's whole chain. A computation
  /// polls `ctx` at chunk granularity and waiters wait no longer than
  /// `ctx`'s deadline. `num_threads` parallelizes a cache-miss computation
  /// (library convention: 1 sequential, 0 = all hardware threads).
  [[nodiscard]] Result<std::shared_ptr<const SparseMatrix>> GetLeft(
      const HinGraph& graph, const MetaPath& path,
      const QueryContext& ctx = QueryContext::Background(), int num_threads = 1);

  /// Right reachable matrix `PM_(PR^-1)` of the decomposition of `path`
  /// (|target type| x |middle|), computed on first use like `GetLeft`
  /// (folding cached suffix partials).
  [[nodiscard]] Result<std::shared_ptr<const SparseMatrix>> GetRight(
      const HinGraph& graph, const MetaPath& path,
      const QueryContext& ctx = QueryContext::Background(), int num_threads = 1);

  /// The inverted index and target norms of `path`'s right half, keyed
  /// `"IX:" + RightKey(path)`, so every path ending in the same half shares
  /// one. Built on first use from `GetRight`'s half and charged to
  /// the memory budget like a matrix; waiters, failures and eviction behave
  /// as in `GetLeft`. A searcher holding the index keeps it alive after
  /// eviction or `Clear()`.
  [[nodiscard]] Result<std::shared_ptr<const TargetIndex>> GetTargetIndex(
      const HinGraph& graph, const MetaPath& path,
      const QueryContext& ctx = QueryContext::Background(), int num_threads = 1);

  /// An already-materialized partial product usable as the head of one
  /// half's transition chain: `matrix` equals the product of that half's
  /// first `steps_covered` chain matrices (for an odd path's full half this
  /// includes the decomposed edge-object factor, so `steps_covered` counts
  /// *chain matrices*, not meta-path steps).
  struct PartialHit {
    std::shared_ptr<const SparseMatrix> matrix;
    int steps_covered = 0;
  };

  /// Ad-hoc meta-path probe: returns every READY cached partial covering a
  /// prefix of the requested half of `path` (`left_side` = the source half,
  /// else the target half), longest first, skipping covers beyond
  /// `max_steps` (the half's chain length). Probes never compute anything —
  /// they only look — so they are cheap enough to run on query planning.
  /// Each call counts one prefix/suffix probe; a call that finds at least
  /// one partial counts one probe hit (see `Stats`).
  std::vector<PartialHit> ProbePartials(const MetaPath& path, bool left_side,
                                        int max_steps) EXCLUDES(mutex_);

  /// Records that a probed partial was actually folded into an execution
  /// plan, saving roughly `bytes_saved` of recomputed intermediates
  /// (accumulated into `Stats::partial_bytes_saved`).
  void RecordPartialReuse(bool left_side, size_t bytes_saved) EXCLUDES(mutex_);

  /// Attaches the byte budget charged by every subsequent admission
  /// (nullptr = unlimited, the default). Existing entries are *not*
  /// retroactively charged; attach before populating. The budget may be
  /// shared with other consumers — the cache releases exactly what it
  /// reserved — and the cache holds at most `max_bytes` of it: an admission
  /// first evicts down to that share, so the rest of a shared budget never
  /// fills with evictable entries.
  void SetMemoryBudget(std::shared_ptr<MemoryBudget> budget,
                       size_t max_bytes = MemoryBudget::kUnlimited) EXCLUDES(mutex_);

  /// Attaches the persistent demotion/promotion tier (nullptr detaches).
  /// Attach before populating: existing entries are not retroactively
  /// demotable until they are next touched by eviction.
  void AttachStore(std::shared_ptr<MatrixStore> store) EXCLUDES(mutex_);
  /// The attached store, or nullptr.
  std::shared_ptr<MatrixStore> store() const EXCLUDES(mutex_);

  /// Writes every READY cached matrix not already on disk to the attached
  /// store (the offline `materialize` workflow: compute the partials for a
  /// path list, then flush). In-flight entries are skipped. Fails if no
  /// store is attached or a write fails; already-persisted keys are not
  /// rewritten.
  [[nodiscard]] Status FlushToStore() EXCLUDES(mutex_);

  /// Cache effectiveness counters. A request that finds the key present —
  /// ready or still being computed by another thread — counts as a hit; a
  /// request that claims a fresh key counts as a miss. A miss is served
  /// from the store when possible (`store_hits`), so the number of
  /// computations started is `misses - store_hits`.
  struct Stats {
    size_t hits = 0;
    size_t misses = 0;
    size_t entries = 0;
    size_t evictions = 0;         ///< entries removed by the budget
    size_t failed_computes = 0;   ///< computations that published an error
    size_t rejected_inserts = 0;  ///< matrices served uncached (didn't fit)
    size_t accounted_bytes = 0;   ///< bytes currently admitted
    size_t peak_accounted_bytes = 0;  ///< high-water mark of the above
    size_t prefix_probes = 0;       ///< `ProbePartials` calls, left halves
    size_t prefix_probe_hits = 0;   ///< ...that found >= 1 ready partial
    size_t suffix_probes = 0;       ///< `ProbePartials` calls, right halves
    size_t suffix_probe_hits = 0;   ///< ...that found >= 1 ready partial
    size_t partial_bytes_saved = 0;  ///< recompute bytes avoided via reuse
    size_t store_hits = 0;       ///< misses served from the attached store
    size_t store_misses = 0;     ///< misses the store could not serve
    size_t store_demotions = 0;  ///< evicted entries written to the store
  };
  Stats stats() const EXCLUDES(mutex_);

  /// How many times the value for `key` has been computed since the last
  /// `Clear()`. Exactly 1 after a miss-storm on a resident key (the
  /// at-most-once-per-residency guarantee); higher only when the entry was
  /// evicted or a failed computation was redone. A miss
  /// served by promoting the key from the attached store does NOT count —
  /// reading back is not a computation — so with a store underneath, a
  /// demote/promote cycle leaves the count at 1. Keys come from
  /// `LeftKey`/`RightKey`, and `"IX:" + RightKey(path)` for an index.
  size_t ComputeCount(const std::string& key) const EXCLUDES(mutex_);

  /// Drops all entries and resets every counter in `Stats` (releasing any
  /// budget bytes).
  void Clear() EXCLUDES(mutex_);

 private:
  /// What a slot publishes: a reachable-probability product or an index.
  using Entry = std::variant<std::shared_ptr<const SparseMatrix>,
                             std::shared_ptr<const TargetIndex>>;

  /// One cache entry. The future becomes ready exactly when the claiming
  /// thread publishes (a value or an error); waiters block on it without
  /// holding the map lock. Admission metadata is guarded by `mutex_`.
  struct Slot {
    std::shared_future<Result<Entry>> future;
    bool ready = false;        ///< future resolved OK; admission decided
    bool from_store = false;   ///< already on disk; eviction skips demotion
    size_t bytes = 0;          ///< ApproxBytes of the value once ready
    double compute_seconds = 0;  ///< measured cost of the materialization
    double priority = 0;       ///< GreedyDual-Size eviction priority
    MemoryReservation reservation;  ///< budget charge (empty if unbudgeted)
  };

  /// Computes one half of `path` on a miss (`left_side` = the source half):
  /// the cheapest cached prefix partial folded with the uncovered tail hops,
  /// or the half's whole chain (see `GetLeft`). Runs outside the lock.
  [[nodiscard]] Result<SparseMatrix> ComputeHalf(const HinGraph& graph,
                                                 const MetaPath& path,
                                                 bool left_side,
                                                 const QueryContext& ctx,
                                                 int num_threads)
      EXCLUDES(mutex_);

  /// Claims, waits on or serves `key`, running `compute` outside the lock
  /// on a miss. `T` is `SparseMatrix` (probed in and demoted to the store)
  /// or `TargetIndex` (memory only).
  template <typename T>
  [[nodiscard]] Result<std::shared_ptr<const T>> GetOrCompute(
      const std::string& key, const QueryContext& ctx,
      const std::function<Result<T>()>& compute) EXCLUDES(mutex_);

  /// Resolves a claimed `slot`'s future with `value`, then admits the slot
  /// (charging the value's `ApproxBytes`) or, when it cannot fit, drops it
  /// so the value is served uncached.
  void Publish(const std::string& key, const std::shared_ptr<Slot>& slot,
               std::promise<Result<Entry>>& promise, Entry value,
               double compute_seconds, bool from_store) EXCLUDES(mutex_);

  /// The matrix a READY slot holds, or null when it holds an index.
  static std::shared_ptr<const SparseMatrix> MatrixOf(const Slot& slot);

  /// Admission bookkeeping for a freshly computed `slot` (locked): charges
  /// the budget, evicting in priority order down to `max_bytes_` and then
  /// until the budget has room. Returns false when
  /// the matrix cannot fit even after eviction — the caller then removes
  /// the entry and the matrix is served uncached.
  bool AdmitLocked(Slot& slot) REQUIRES(mutex_);
  /// Evicts the lowest-priority ready entry; false when none is evictable.
  /// With a store attached, a not-yet-persisted victim is queued on
  /// `pending_demotions_` (written later, outside the lock — never IO
  /// here) instead of being lost.
  bool EvictOneLocked() REQUIRES(mutex_);
  /// Refreshes `slot`'s GreedyDual-Size priority on access (locked).
  void TouchLocked(Slot& slot) REQUIRES(mutex_);
  /// Drains `pending_demotions_` to the store. Called after every section
  /// that may have evicted; takes and releases `mutex_` itself, doing the
  /// actual writes unlocked on the calling (query) thread.
  void FlushPendingDemotions() EXCLUDES(mutex_);

  mutable Mutex mutex_;
  // budget_ must be declared before entries_: slot destructors release
  // their MemoryReservation against the raw budget pointer, so the budget
  // has to outlive the slot map when the cache holds the last reference.
  // Slot fields themselves cannot carry GUARDED_BY (the guarding mutex is
  // per-cache, not per-slot): `future` is deliberately read lock-free by
  // waiters; every other Slot field is only touched under mutex_ (see the
  // DESIGN.md §11 lock table).
  std::shared_ptr<MemoryBudget> budget_ GUARDED_BY(mutex_);
  /// The cache's share of `budget_` (`accounted_bytes_` never exceeds it).
  size_t max_bytes_ GUARDED_BY(mutex_) = MemoryBudget::kUnlimited;
  /// The persistent tier; copied out under the lock, IO'd without it.
  std::shared_ptr<MatrixStore> store_ GUARDED_BY(mutex_);
  /// Eviction victims awaiting their demotion write (key, matrix).
  std::vector<std::pair<std::string, std::shared_ptr<const SparseMatrix>>>
      pending_demotions_ GUARDED_BY(mutex_);
  std::unordered_map<std::string, std::shared_ptr<Slot>> entries_ GUARDED_BY(mutex_);
  std::unordered_map<std::string, size_t> compute_counts_ GUARDED_BY(mutex_);
  /// GreedyDual-Size aging clock (max evicted priority).
  double clock_ GUARDED_BY(mutex_) = 0;
  size_t hits_ GUARDED_BY(mutex_) = 0;
  size_t misses_ GUARDED_BY(mutex_) = 0;
  size_t evictions_ GUARDED_BY(mutex_) = 0;
  size_t failed_computes_ GUARDED_BY(mutex_) = 0;
  size_t rejected_inserts_ GUARDED_BY(mutex_) = 0;
  size_t accounted_bytes_ GUARDED_BY(mutex_) = 0;
  size_t peak_accounted_bytes_ GUARDED_BY(mutex_) = 0;
  size_t prefix_probes_ GUARDED_BY(mutex_) = 0;
  size_t prefix_probe_hits_ GUARDED_BY(mutex_) = 0;
  size_t suffix_probes_ GUARDED_BY(mutex_) = 0;
  size_t suffix_probe_hits_ GUARDED_BY(mutex_) = 0;
  size_t partial_bytes_saved_ GUARDED_BY(mutex_) = 0;
  size_t store_hits_ GUARDED_BY(mutex_) = 0;
  size_t store_misses_ GUARDED_BY(mutex_) = 0;
  size_t store_demotions_ GUARDED_BY(mutex_) = 0;
};

}  // namespace hetesim

#endif  // HETESIM_CORE_MATERIALIZE_H_
