// perfbench_tool — the compiled half of the end-to-end benchmark
// (perfbench/run.py drives it). Subcommands:
//   schedule  write a workload's request schedule for a graph and a seed
//   load      time loading, digesting and freeing the graph in a fresh process
//   send      drive the schedule over a hetesim_serve socket
//   check     compare sampled answers with an exhaustive oracle
//   replay    replay the schedule in-process with spans, for the ledger

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "datagen/io.h"
#include "hin/digest.h"
#include "tool/common.h"
#include "tool/tool.h"

namespace perfbench {

bool Flags::Parse(int argc, char** argv, int first, std::string* error) {
  for (int i = first; i < argc; i += 2) {
    const std::string name = argv[i];
    if (name.rfind("--", 0) != 0 || i + 1 >= argc) {
      *error = "expected --flag value, got '" + name + "'";
      return false;
    }
    values_[name.substr(2)] = argv[i + 1];
  }
  return true;
}

std::string Flags::Get(const std::string& name, const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double Flags::GetDouble(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
}

std::string JsonEscape(const std::string& text) {
  std::string out;
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

int RunSchedule(const Flags& flags) {
  const std::string workload = flags.Get("workload");
  if (!IsWorkload(workload)) {
    std::fprintf(stderr, "schedule: unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  hetesim::Result<hetesim::HinGraph> graph =
      hetesim::LoadHinGraphFromFile(flags.Get("graph"));
  if (!graph.ok()) {
    std::fprintf(stderr, "schedule: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  const uint64_t seed = std::strtoull(flags.Get("seed", "1").c_str(), nullptr, 10);
  const std::string text = RenderSchedule(BuildSchedule(*graph, workload, seed));
  if (!WriteFile(flags.Get("out"), text)) {
    std::fprintf(stderr, "schedule: cannot write %s\n", flags.Get("out").c_str());
    return 1;
  }
  std::printf(
      "{\"graph_digest\": \"%016llx\", \"schedule_digest\": \"%016llx\", "
      "\"nodes\": %lld, \"edges\": %lld}\n",
      static_cast<unsigned long long>(hetesim::GraphDigest(*graph)),
      static_cast<unsigned long long>(Fnv1a(text)),
      static_cast<long long>(graph->TotalNodes()),
      static_cast<long long>(graph->TotalEdges()));
  return 0;
}

int RunLoad(const Flags& flags) {
  const Clock::time_point start = Clock::now();
  std::optional<hetesim::Result<hetesim::HinGraph>> graph(
      hetesim::LoadHinGraphFromFile(flags.Get("graph")));
  const Clock::time_point loaded = Clock::now();
  if (!graph->ok()) {
    std::fprintf(stderr, "load: %s\n", graph->status().ToString().c_str());
    return 1;
  }
  const uint64_t digest = hetesim::GraphDigest(**graph);
  const Clock::time_point digested = Clock::now();
  graph.reset();
  const Clock::time_point released = Clock::now();
  std::printf(
      "{\"load_ms\": %s, \"digest_ms\": %s, \"release_ms\": %s, \"digest\": "
      "\"%016llx\"}\n",
      Num(MsBetween(start, loaded)).c_str(), Num(MsBetween(loaded, digested)).c_str(),
      Num(MsBetween(digested, released)).c_str(), static_cast<unsigned long long>(digest));
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: perfbench_tool schedule|load|send|check|replay --flag value ...\n");
    return 2;
  }
  const std::string command = argv[1];
  perfbench::Flags flags;
  std::string error;
  if (!flags.Parse(argc, argv, 2, &error)) {
    std::fprintf(stderr, "perfbench_tool: %s\n", error.c_str());
    return 2;
  }
  if (command == "schedule") return perfbench::RunSchedule(flags);
  if (command == "load") return perfbench::RunLoad(flags);
  if (command == "send") return perfbench::RunSend(flags);
  if (command == "check") return perfbench::RunCheck(flags);
  if (command == "replay") return perfbench::RunReplay(flags);
  std::fprintf(stderr, "perfbench_tool: unknown command '%s'\n", command.c_str());
  return 2;
}
