#ifndef HETESIM_COMMON_STOPWATCH_H_
#define HETESIM_COMMON_STOPWATCH_H_

#include <chrono>

namespace hetesim {

/// \brief Wall-clock stopwatch used by the benchmark harness and the
/// materialization cache's cost accounting.
class Stopwatch {
 public:
  /// Starts timing at construction.
  Stopwatch() : start_(Clock::now()) {}

  /// Seconds elapsed since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace hetesim

#endif  // HETESIM_COMMON_STOPWATCH_H_
