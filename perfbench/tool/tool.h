#ifndef PERFBENCH_TOOL_TOOL_H_
#define PERFBENCH_TOOL_TOOL_H_

// Subcommands of perfbench_tool and their shared flag parsing.

#include <map>
#include <string>

namespace perfbench {

/// `--name value` pairs after the subcommand word.
class Flags {
 public:
  /// False (with `error`) on a dangling flag or a bare word.
  bool Parse(int argc, char** argv, int first, std::string* error);
  std::string Get(const std::string& name, const std::string& fallback = "") const;
  double GetDouble(const std::string& name, double fallback) const;

 private:
  std::map<std::string, std::string> values_;
};

std::string JsonEscape(const std::string& text);

/// schedule: --graph G --workload W --seed N --out FILE. Writes the
/// workload's request schedule and prints the graph's and the schedule's
/// digests as JSON.
int RunSchedule(const Flags& flags);
/// load: --graph G. Times LoadHinGraphFromFile, GraphDigest and freeing the
/// graph, once each, in this process.
int RunLoad(const Flags& flags);
/// send: --schedule FILE --socket PATH --phase warm|timed|walk
/// [--seconds T] --records FILE --answers FILE (loadgen.cc).
int RunSend(const Flags& flags);
/// check: --graph G --schedule FILE --answers FILE (check.cc).
int RunCheck(const Flags& flags);
/// replay: --graph G --schedule FILE --scratch DIR (replay.cc).
int RunReplay(const Flags& flags);

}  // namespace perfbench

#endif  // PERFBENCH_TOOL_TOOL_H_
