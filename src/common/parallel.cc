#include "common/parallel.h"

#include <algorithm>
#include <thread>

namespace hetesim {

int HardwareThreads() {
  const unsigned reported = std::thread::hardware_concurrency();
  return reported == 0 ? 1 : static_cast<int>(reported);
}

int ResolveNumThreads(int num_threads) {
  if (num_threads == 0) return HardwareThreads();
  return std::max(num_threads, 1);
}

void ParallelFor(int64_t begin, int64_t end, int num_threads,
                 const std::function<void(int64_t, int64_t)>& body,
                 const GrainOptions& grain) {
  if (end - begin <= 0) return;
  const int threads = ResolveNumThreads(num_threads);
  ThreadPool::Global().ParallelFor(begin, end, threads, body, grain);
}

}  // namespace hetesim
