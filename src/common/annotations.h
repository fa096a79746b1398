#ifndef HETESIM_COMMON_ANNOTATIONS_H_
#define HETESIM_COMMON_ANNOTATIONS_H_

/// \file
/// Clang thread-safety analysis attributes (no-ops elsewhere).
///
/// These are the canonical macro names from the Clang thread-safety
/// documentation (the same set Abseil ships under the `ABSL_` prefix).
/// Annotated code compiles unchanged on GCC/MSVC; under Clang with
/// `-Wthread-safety` (the CI `static-analysis` job builds with
/// `-Werror=thread-safety`, see `-DHETESIM_THREAD_SAFETY=ON`) the compiler
/// proves at compile time that every `GUARDED_BY` field is only touched
/// with its mutex held, that `REQUIRES` functions are only called under
/// the right lock, and that scoped locks are not leaked.
///
/// Use the annotated `Mutex`/`MutexLock`/`CondVar` wrappers from
/// common/mutex.h — plain `std::mutex` is invisible to the analysis (and
/// rejected by the `no-raw-mutex` lint rule in library code).
///
/// Conventions (see DESIGN.md §11 for the full table):
///  * Every field touched by more than one thread is either `std::atomic`
///    or `GUARDED_BY` an annotated mutex.
///  * Private `...Locked()` helpers are `REQUIRES(mutex_)`.
///  * Public entry points that take the lock are `EXCLUDES(mutex_)` so the
///    analysis rejects self-deadlock on the non-reentrant `std::mutex`.

#if defined(__clang__)
#define HETESIM_THREAD_ANNOTATION_(x) __attribute__((x))
#else
#define HETESIM_THREAD_ANNOTATION_(x)  // no-op outside Clang
#endif

/// Declares a type to be a lockable capability (e.g. `class CAPABILITY("mutex") Mutex`).
#ifndef CAPABILITY
#define CAPABILITY(x) HETESIM_THREAD_ANNOTATION_(capability(x))
#endif

/// Declares an RAII type that acquires a capability in its constructor and
/// releases it in its destructor.
#ifndef SCOPED_CAPABILITY
#define SCOPED_CAPABILITY HETESIM_THREAD_ANNOTATION_(scoped_lockable)
#endif

/// Field may only be read or written with capability `x` held.
#ifndef GUARDED_BY
#define GUARDED_BY(x) HETESIM_THREAD_ANNOTATION_(guarded_by(x))
#endif

/// Pointer field whose *pointee* may only be accessed with `x` held.
#ifndef PT_GUARDED_BY
#define PT_GUARDED_BY(x) HETESIM_THREAD_ANNOTATION_(pt_guarded_by(x))
#endif

/// Function must be called with the listed capabilities held (and does not
/// release them).
#ifndef REQUIRES
#define REQUIRES(...) HETESIM_THREAD_ANNOTATION_(requires_capability(__VA_ARGS__))
#endif

/// Shared (reader) variant of REQUIRES.
#ifndef REQUIRES_SHARED
#define REQUIRES_SHARED(...) \
  HETESIM_THREAD_ANNOTATION_(requires_shared_capability(__VA_ARGS__))
#endif

/// Function acquires the listed capabilities and holds them on return.
#ifndef ACQUIRE
#define ACQUIRE(...) HETESIM_THREAD_ANNOTATION_(acquire_capability(__VA_ARGS__))
#endif

/// Shared (reader) variant of ACQUIRE.
#ifndef ACQUIRE_SHARED
#define ACQUIRE_SHARED(...) \
  HETESIM_THREAD_ANNOTATION_(acquire_shared_capability(__VA_ARGS__))
#endif

/// Function releases the listed capabilities (which must be held on entry).
#ifndef RELEASE
#define RELEASE(...) HETESIM_THREAD_ANNOTATION_(release_capability(__VA_ARGS__))
#endif

/// Shared (reader) variant of RELEASE.
#ifndef RELEASE_SHARED
#define RELEASE_SHARED(...) \
  HETESIM_THREAD_ANNOTATION_(release_shared_capability(__VA_ARGS__))
#endif

/// Function must be called with the listed capabilities NOT held. Because
/// `std::mutex` is non-reentrant, every public method that locks `mutex_`
/// internally is `EXCLUDES(mutex_)`.
#ifndef EXCLUDES
#define EXCLUDES(...) HETESIM_THREAD_ANNOTATION_(locks_excluded(__VA_ARGS__))
#endif

/// Runtime assertion that the capability is held (tells the analysis so).
#ifndef ASSERT_CAPABILITY
#define ASSERT_CAPABILITY(x) HETESIM_THREAD_ANNOTATION_(assert_capability(x))
#endif

/// Function returns a reference to the named capability.
#ifndef RETURN_CAPABILITY
#define RETURN_CAPABILITY(x) HETESIM_THREAD_ANNOTATION_(lock_returned(x))
#endif

/// Escape hatch: disables analysis for one function. Use only inside the
/// lock wrappers themselves or with a comment explaining why the analysis
/// cannot see the invariant.
#ifndef NO_THREAD_SAFETY_ANALYSIS
#define NO_THREAD_SAFETY_ANALYSIS HETESIM_THREAD_ANNOTATION_(no_thread_safety_analysis)
#endif

#endif  // HETESIM_COMMON_ANNOTATIONS_H_
