#ifndef HETESIM_COMMON_MUTEX_H_
#define HETESIM_COMMON_MUTEX_H_

#include <condition_variable>
#include <mutex>

#include "common/annotations.h"

namespace hetesim {

/// \brief `std::mutex` wrapped as a Clang thread-safety *capability*.
///
/// Functionally identical to `std::mutex` (same non-reentrant semantics,
/// zero added state), but visible to `-Wthread-safety`: fields declared
/// `GUARDED_BY(mutex_)` may only be touched while a `MutexLock` on (or an
/// explicit `Lock()` of) that mutex is in scope, and the CI static-analysis
/// job turns violations into compile errors. All library-internal locking
/// goes through this type; the `no-raw-mutex` lint rule (run by
/// `hetesim_analyze`) rejects raw `std::mutex` / `std::lock_guard` in
/// `src/` outside this header.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() { mu_.lock(); }
  void Unlock() RELEASE() { mu_.unlock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

/// \brief RAII lock on a `Mutex` (the annotated `std::lock_guard`).
///
/// Scoped-capability type: the analysis treats the guarded mutex as held
/// from construction to the end of the enclosing scope. Condition-variable
/// wait loops are written at the call site so the analysis can see the
/// guarded reads:
/// \code
///   MutexLock lock(mutex_);
///   while (queue_.empty() && !stop_) cv_.Wait(mutex_);
/// \endcode
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.Lock(); }
  ~MutexLock() RELEASE() { mu_.Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// \brief Condition variable paired with `Mutex`.
///
/// `Wait` atomically releases the mutex, sleeps, and re-acquires it before
/// returning — the annotation says the caller must (and will again) hold
/// the mutex. Spurious wakeups are possible; callers loop on their
/// predicate under the lock as shown above, which is also the shape the
/// thread-safety analysis can verify (a predicate lambda would be analyzed
/// without the REQUIRES context and falsely flagged).
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Blocks until notified (or spuriously woken). Requires `mu` held; it is
  /// released while sleeping and re-held on return.
  void Wait(Mutex& mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();  // ownership stays with the caller's MutexLock
  }

  /// `Wait` with a timeout; returns false if `deadline` passed first.
  template <typename Clock, typename Duration>
  bool WaitUntil(Mutex& mu,
                 const std::chrono::time_point<Clock, Duration>& deadline)
      REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu.mu_, std::adopt_lock);
    const std::cv_status status = cv_.wait_until(lock, deadline);
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace hetesim

#endif  // HETESIM_COMMON_MUTEX_H_
