#ifndef HETESIM_COMMON_PARALLEL_H_
#define HETESIM_COMMON_PARALLEL_H_

#include <cstdint>
#include <functional>

#include "common/thread_pool.h"

namespace hetesim {

/// Number of hardware threads, at least 1.
int HardwareThreads();

/// Resolves a `num_threads` option to an effective thread count:
/// `0` means "all hardware threads" (the size of the global pool),
/// negative values clamp to 1, everything else passes through.
int ResolveNumThreads(int num_threads);

/// \brief Runs `body(block_begin, block_end)` over `[begin, end)` on the
/// global thread pool with cost-based grain sizing (see `GrainOptions`).
///
/// Up to `num_threads` threads participate (the caller plus pool workers);
/// `num_threads == 0` uses all hardware threads, `<= 1` runs inline on the
/// calling thread. Empty and single-element ranges, and thread counts
/// larger than the range, are handled here — callers need no clamping.
/// Blocks partition `[begin, end)` exactly and deterministically; blocks
/// never overlap, so `body` only needs to be safe on disjoint ranges.
/// Blocks until every block finishes. Safe to call from inside pool tasks
/// (nested regions drain on the calling thread).
void ParallelFor(int64_t begin, int64_t end, int num_threads,
                 const std::function<void(int64_t, int64_t)>& body,
                 const GrainOptions& grain = {});

}  // namespace hetesim

#endif  // HETESIM_COMMON_PARALLEL_H_
