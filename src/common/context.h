#ifndef HETESIM_COMMON_CONTEXT_H_
#define HETESIM_COMMON_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>

#include "common/annotations.h"
#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"

namespace hetesim {

class Trace;  // common/trace.h; contexts carry a non-owning pointer only

/// \brief Cooperative cancellation flag, shared by value.
///
/// Copies of a token observe the same underlying flag, so a caller can hand
/// a token into a long-running computation, keep a copy, and flip it from
/// another thread. Checking is one relaxed-ish atomic load; computations
/// poll at *chunk* granularity (once per parallel block / row stripe), never
/// per element, so the steady-state cost is unmeasurable.
class CancelToken {
 public:
  CancelToken() : state_(std::make_shared<std::atomic<bool>>(false)) {}

  /// Requests cancellation. Idempotent; safe from any thread. Const because
  /// it mutates the shared flag, not the handle — a computation holding a
  /// `const QueryContext&` can still be cancelled through another copy.
  void Cancel() const { state_->store(true, std::memory_order_release); }
  /// True once `Cancel()` has been called on any copy of this token.
  bool cancelled() const { return state_->load(std::memory_order_acquire); }

 private:
  std::shared_ptr<std::atomic<bool>> state_;
};

/// \brief Atomic byte accounting against a fixed limit.
///
/// `TryReserve` atomically charges bytes if and only if the result stays
/// within the limit, so the accounted total can never overshoot — the
/// invariant behind the `--max-cache-mb` guarantee. Reservations are
/// released through the RAII `MemoryReservation` handle (or `Release` for
/// the rare manual case). `peak_bytes()` tracks the high-water mark.
class MemoryBudget {
 public:
  static constexpr size_t kUnlimited = std::numeric_limits<size_t>::max();

  explicit MemoryBudget(size_t limit_bytes) : limit_(limit_bytes) {}
  MemoryBudget(const MemoryBudget&) = delete;
  MemoryBudget& operator=(const MemoryBudget&) = delete;

  /// Charges `bytes` if the new total stays <= limit. Returns false (and
  /// charges nothing) otherwise.
  bool TryReserve(size_t bytes);
  /// Returns a previous reservation. Over-release is a programming error
  /// and clamps to zero rather than wrapping.
  void Release(size_t bytes);

  size_t limit_bytes() const { return limit_; }
  size_t used_bytes() const { return used_.load(std::memory_order_relaxed); }
  size_t peak_bytes() const { return peak_.load(std::memory_order_relaxed); }

  /// Fraction of the limit currently reserved, in [0, 1]; 0 for an
  /// unlimited budget. The admission controller's memory-pressure signal.
  double UsedFraction() const {
    if (limit_ == 0 || limit_ == kUnlimited) return 0.0;
    const double f = static_cast<double>(used_bytes()) / static_cast<double>(limit_);
    return f > 1.0 ? 1.0 : f;
  }

 private:
  const size_t limit_;
  std::atomic<size_t> used_{0};
  std::atomic<size_t> peak_{0};
};

/// \brief RAII handle for a `MemoryBudget` reservation.
///
/// Move-only; releases its bytes back to the budget on destruction. A
/// default-constructed reservation is empty (owns nothing), which is also
/// the state used when no budget is attached — callers can hold one
/// unconditionally.
class MemoryReservation {
 public:
  MemoryReservation() = default;
  /// Takes ownership of `bytes` already reserved on `budget`.
  MemoryReservation(MemoryBudget* budget, size_t bytes)
      : budget_(budget), bytes_(bytes) {}
  ~MemoryReservation() { reset(); }

  MemoryReservation(MemoryReservation&& other) noexcept
      : budget_(std::exchange(other.budget_, nullptr)),
        bytes_(std::exchange(other.bytes_, 0)) {}
  MemoryReservation& operator=(MemoryReservation&& other) noexcept {
    if (this != &other) {
      reset();
      budget_ = std::exchange(other.budget_, nullptr);
      bytes_ = std::exchange(other.bytes_, 0);
    }
    return *this;
  }
  MemoryReservation(const MemoryReservation&) = delete;
  MemoryReservation& operator=(const MemoryReservation&) = delete;

  /// Adds `other`'s bytes to this reservation and empties `other`, so a
  /// buffer that grows in steps can be charged in steps and released once.
  /// Both must be charged to the same budget.
  void Absorb(MemoryReservation other) {
    if (other.budget_ == nullptr) return;
    if (budget_ == nullptr) budget_ = other.budget_;
    bytes_ += std::exchange(other.bytes_, 0);
  }

  /// Releases the bytes now instead of at destruction.
  void reset() {
    if (budget_ != nullptr && bytes_ > 0) budget_->Release(bytes_);
    budget_ = nullptr;
    bytes_ = 0;
  }

  size_t bytes() const { return bytes_; }
  bool empty() const { return bytes_ == 0; }

 private:
  MemoryBudget* budget_ = nullptr;
  size_t bytes_ = 0;
};

/// \brief Per-query execution context: monotonic deadline, cooperative
/// cancellation, and an optional memory budget.
///
/// A `QueryContext` is cheap to copy (a token, an optional time point, and
/// two raw pointers) and is passed by const reference through the compute
/// stack. Every pooled parallel region checks `CheckAlive()` at chunk
/// granularity: a cancelled or expired context makes the remaining chunks
/// no-ops, so the region drains within one chunk's worth of work and never
/// leaks pool tasks. `Background()` is the no-deadline, never-cancelled,
/// unbudgeted default used by all legacy entry points.
class QueryContext {
 public:
  using Clock = std::chrono::steady_clock;

  QueryContext() = default;

  /// The shared do-everything context: no deadline, no budget, and a token
  /// that is never cancelled.
  static const QueryContext& Background();

  /// Returns a copy of this context that additionally expires at `deadline`.
  QueryContext WithDeadline(Clock::time_point deadline) const {
    QueryContext copy = *this;
    copy.deadline_ = deadline;
    return copy;
  }
  /// Returns a copy expiring `ms` milliseconds from now.
  QueryContext WithDeadlineAfterMs(int64_t ms) const {
    return WithDeadline(Clock::now() + std::chrono::milliseconds(ms));
  }
  /// Returns a copy charging transient allocations against `budget`
  /// (non-owning; the budget must outlive the context).
  QueryContext WithBudget(MemoryBudget* budget) const {
    QueryContext copy = *this;
    copy.budget_ = budget;
    return copy;
  }
  /// Returns a copy observing `token` instead of this context's own token.
  /// Lets an external party (e.g. a connection handler that detects a
  /// client disconnect) cancel the query without holding the context.
  QueryContext WithCancel(CancelToken token) const {
    QueryContext copy = *this;
    copy.token_ = std::move(token);
    return copy;
  }
  /// Returns a copy that records stage spans into `trace` (non-owning; the
  /// trace must outlive the context). See common/trace.h for the span model.
  QueryContext WithTrace(Trace* trace) const {
    QueryContext copy = *this;
    copy.trace_ = trace;
    return copy;
  }

  /// Requests cooperative cancellation of every computation holding a copy
  /// of this context (or its token).
  void Cancel() const { token_.Cancel(); }

  const CancelToken& token() const { return token_; }
  std::optional<Clock::time_point> deadline() const { return deadline_; }
  MemoryBudget* budget() const { return budget_; }
  /// The attached trace, or nullptr (the default: tracing off).
  Trace* trace() const { return trace_; }

  bool cancelled() const { return token_.cancelled(); }
  bool deadline_expired() const {
    return deadline_.has_value() && Clock::now() >= *deadline_;
  }
  /// One combined check, cheapest first: cancellation is an atomic load,
  /// the deadline costs a clock read only when one is set.
  bool Expired() const { return cancelled() || deadline_expired(); }

  /// OK while the query should keep running; `Cancelled` or
  /// `DeadlineExceeded` once it should stop. Cancellation wins ties so a
  /// caller-initiated stop is reported as such even after the deadline.
  [[nodiscard]] Status CheckAlive() const;

  /// Reserves `bytes` on the attached budget; an empty reservation when no
  /// budget is attached (unbudgeted contexts never fail allocation checks).
  [[nodiscard]] Result<MemoryReservation> Reserve(size_t bytes) const;

 private:
  CancelToken token_;
  std::optional<Clock::time_point> deadline_;
  MemoryBudget* budget_ = nullptr;
  Trace* trace_ = nullptr;
};

/// \brief First-error-wins status aggregator for parallel regions.
///
/// Parallel bodies cannot return a `Status`, so a region shares one of
/// these: any chunk that fails records its status (first failure kept);
/// subsequent chunks see `ok() == false` via one atomic load and skip their
/// work, and the caller returns `status()` after the join.
class SharedStatus {
 public:
  SharedStatus() = default;
  SharedStatus(const SharedStatus&) = delete;
  SharedStatus& operator=(const SharedStatus&) = delete;

  /// Records `status` if it is the first non-OK one. OK statuses are
  /// ignored.
  void Update(Status status) EXCLUDES(mutex_);
  /// True while no failure has been recorded (one relaxed atomic load).
  bool ok() const { return !failed_.load(std::memory_order_acquire); }
  /// The first recorded failure, or OK.
  [[nodiscard]] Status status() const EXCLUDES(mutex_);

 private:
  std::atomic<bool> failed_{false};
  mutable Mutex mutex_;
  Status first_ GUARDED_BY(mutex_);
};

}  // namespace hetesim

#endif  // HETESIM_COMMON_CONTEXT_H_
