#ifndef PERFBENCH_TOOL_COMMON_H_
#define PERFBENCH_TOOL_COMMON_H_

// Shared pieces of perfbench_tool: the workload schedules (a pure function
// of the graph and the seed), their text form, and small numeric helpers.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "hin/graph.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

enum class Kind { kPair, kSingle, kTopK };
const char* KindName(Kind kind);

/// When a request is sent. kWarm requests belong to set-up, kTimed to the
/// closed loops of cli_oneshot and serve_hot, kCold/kHot to the ad-hoc walk
/// (the first request of each kind on a path, and the ones after it).
enum class Phase { kWarm, kTimed, kCold, kHot };
const char* PhaseName(Phase phase);

struct Request {
  int conn = 0;
  int64_t seq = 0;  ///< position within its connection's stream
  Phase phase = Phase::kTimed;
  Kind kind = Kind::kPair;
  std::string path;
  int64_t source = 0;
  int64_t target = -1;  ///< pair only
  int k = 0;            ///< top-k and single-source only
  std::string source_name;
  std::string target_name;  ///< "-" when there is no target
};

struct Schedule {
  std::string workload;
  uint64_t seed = 0;
  /// serve_adhoc only: the paths set-up materializes into the store.
  std::vector<std::string> materialize;
  std::vector<Request> requests;
};

/// Requests the ad-hoc walk sends on each path: pair, single-source and
/// top-k cold, then this many hot ones cycling through the same kinds.
constexpr int kAdhocHotPerPath = 36;
constexpr int kAdhocRequestsPerPath = 3 + kAdhocHotPerPath;

/// The three workloads; anything else is rejected by BuildSchedule.
bool IsWorkload(const std::string& name);

/// Builds `workload`'s request schedule for `seed` over `graph`. Every
/// source and target has at least one paper.
Schedule BuildSchedule(const hetesim::HinGraph& graph, const std::string& workload,
                       uint64_t seed);

std::string RenderSchedule(const Schedule& schedule);
/// Parses RenderSchedule's output; false (with `error`) on a malformed file.
bool ParseSchedule(const std::string& text, Schedule* schedule, std::string* error);

uint64_t Fnv1a(const std::string& bytes);
bool ReadFile(const std::string& path, std::string* contents);
bool WriteFile(const std::string& path, const std::string& contents);

/// Nearest-rank percentile, q in [0, 1]; 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

/// Formats a double with all its digits.
std::string Num(double value);

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_COMMON_H_
