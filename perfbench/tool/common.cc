#include "tool/common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <sstream>

#include "hin/metapath.h"

namespace perfbench {
namespace {

using hetesim::HinGraph;
using hetesim::Index;
using hetesim::MetaPath;

/// SplitMix64: small, seedable, identical on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  size_t Below(size_t n) { return static_cast<size_t>(Next() % n); }

 private:
  uint64_t state_;
};

template <typename T>
void Shuffle(std::vector<T>& items, Rng& rng) {
  for (size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[rng.Below(i)]);
}

constexpr int kTopK = 10;
/// Requests per connection generated for serve_hot's closed loop; a run
/// that sends more starts the stream over.
constexpr int64_t kHotStreamLength = 100000;
/// Timed one-shot invocations generated for cli_oneshot; a run that spawns
/// more starts the list over.
constexpr int kCliStreamLength = 270;

/// Nodes of the type with code `code` that write, or appear in, at least
/// one paper: the row of the type's first relation step towards P is
/// non-empty.
class Sources {
 public:
  explicit Sources(const HinGraph& graph) : graph_(graph) {}

  const std::vector<Index>& Of(char code) {
    auto it = by_code_.find(code);
    if (it != by_code_.end()) return it->second;
    std::vector<Index>& ids = by_code_[code];
    const MetaPath to_paper =
        MetaPath::Parse(graph_.schema(), std::string(1, code) + "-P").value();
    const hetesim::SparseMatrix& adjacency = graph_.StepAdjacency(to_paper.StepAt(0));
    for (Index id = 0; id < adjacency.rows(); ++id) {
      if (adjacency.RowNnz(id) > 0) ids.push_back(id);
    }
    return ids;
  }

 private:
  const HinGraph& graph_;
  std::map<char, std::vector<Index>> by_code_;
};

struct Combo {
  Kind kind;
  const char* path;
};

Request MakeRequest(const HinGraph& graph, Sources& sources, Rng& rng, Kind kind,
                    const std::string& path_spec) {
  const MetaPath path = MetaPath::Parse(graph.schema(), path_spec).value();
  const char source_code = path_spec.front();
  const char target_code = path_spec.back();
  Request request;
  request.kind = kind;
  request.path = path_spec;
  const std::vector<Index>& source_ids = sources.Of(source_code);
  request.source = source_ids[rng.Below(source_ids.size())];
  request.source_name = graph.NodeName(path.SourceType(), request.source);
  request.target_name = "-";
  if (kind == Kind::kPair) {
    const std::vector<Index>& target_ids = sources.Of(target_code);
    request.target = target_ids[rng.Below(target_ids.size())];
    request.target_name = graph.NodeName(path.TargetType(), request.target);
  } else if (kind == Kind::kTopK) {
    request.k = kTopK;
  } else {
    // A whole row; the CLI asks for it as a top-k over every target.
    request.k = static_cast<int>(graph.NumNodes(path.TargetType()));
  }
  return request;
}

void Append(Schedule& schedule, Request request, int conn, Phase phase) {
  request.conn = conn;
  request.phase = phase;
  int64_t seq = 0;
  for (auto it = schedule.requests.rbegin(); it != schedule.requests.rend(); ++it) {
    if (it->conn == conn) {
      seq = it->seq + 1;
      break;
    }
  }
  request.seq = seq;
  schedule.requests.push_back(std::move(request));
}

}  // namespace

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kPair:
      return "pair";
    case Kind::kSingle:
      return "single";
    case Kind::kTopK:
      return "topk";
  }
  return "?";
}

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kWarm:
      return "warm";
    case Phase::kTimed:
      return "timed";
    case Phase::kCold:
      return "cold";
    case Phase::kHot:
      return "hot";
  }
  return "?";
}

bool IsWorkload(const std::string& name) {
  return name == "cli_oneshot" || name == "serve_hot" || name == "serve_adhoc";
}

Schedule BuildSchedule(const HinGraph& graph, const std::string& workload,
                       uint64_t seed) {
  Schedule schedule;
  schedule.workload = workload;
  schedule.seed = seed;
  Sources sources(graph);
  // One stream per purpose, so adding requests to one never shifts another.
  Rng warm_rng(seed * 0x100000001b3ull + 1);
  Rng rng(seed * 0x100000001b3ull + 2);

  if (workload == "cli_oneshot") {
    // Each kind gets a third of the invocations.
    static const Combo kCombos[] = {
        {Kind::kTopK, "A-P-A"},     {Kind::kPair, "A-P-A"},     {Kind::kSingle, "A-P-C"},
        {Kind::kTopK, "A-P-C-P-A"}, {Kind::kPair, "A-P-C-P-A"}, {Kind::kSingle, "A-P-C"},
        {Kind::kTopK, "A-P-T-P-A"}, {Kind::kPair, "A-P-T-P-A"}, {Kind::kSingle, "A-P-C"},
    };
    // One warm-up invocation per set-up repetition.
    for (int i = 0; i < 5; ++i) {
      Append(schedule, MakeRequest(graph, sources, warm_rng, Kind::kTopK, "A-P-A"), 0,
             Phase::kWarm);
    }
    for (int i = 0; i < kCliStreamLength; ++i) {
      const Combo& combo = kCombos[i % std::size(kCombos)];
      Append(schedule, MakeRequest(graph, sources, rng, combo.kind, combo.path), 0,
             Phase::kTimed);
    }
  } else if (workload == "serve_hot") {
    static const Combo kMix[] = {
        {Kind::kTopK, "A-P-A"},
        {Kind::kTopK, "A-P-T-P-A"},
        {Kind::kPair, "A-P-C-P-A"},
        {Kind::kSingle, "A-P-C"},
    };
    for (const Combo& combo : kMix) {
      Append(schedule, MakeRequest(graph, sources, warm_rng, combo.kind, combo.path), 0,
             Phase::kWarm);
    }
    for (int conn = 0; conn < 2; ++conn) {
      Rng conn_rng(seed * 0x100000001b3ull + 16 + static_cast<uint64_t>(conn));
      for (int64_t i = 0; i < kHotStreamLength; ++i) {
        const Combo& combo = kMix[conn_rng.Below(std::size(kMix))];
        Append(schedule, MakeRequest(graph, sources, conn_rng, combo.kind, combo.path),
               conn, Phase::kTimed);
      }
    }
  } else if (workload == "serve_adhoc") {
    // X-P-Y and X-P-Z-P-Y over authors, conferences and terms: 36 paths.
    static const char kTypes[] = {'A', 'C', 'T'};
    std::vector<std::string> paths;
    for (char x : kTypes) {
      for (char y : kTypes) paths.push_back(std::string{x, '-', 'P', '-', y});
    }
    for (char x : kTypes) {
      for (char z : kTypes) {
        for (char y : kTypes) {
          paths.push_back(std::string{x, '-', 'P', '-', z, '-', 'P', '-', y});
        }
      }
    }
    std::vector<std::string> stored = paths;
    Shuffle(stored, warm_rng);
    stored.resize(paths.size() / 2);
    schedule.materialize = stored;
    Shuffle(paths, rng);
    static const Kind kKinds[] = {Kind::kPair, Kind::kSingle, Kind::kTopK};
    for (const std::string& path : paths) {
      for (Kind kind : kKinds) {
        Append(schedule, MakeRequest(graph, sources, rng, kind, path), 0, Phase::kCold);
      }
      for (int i = 0; i < kAdhocHotPerPath; ++i) {
        Append(schedule, MakeRequest(graph, sources, rng, kKinds[i % 3], path), 0,
               Phase::kHot);
      }
    }
  }
  return schedule;
}

std::string RenderSchedule(const Schedule& schedule) {
  std::string out = "perfbench-schedule 1 " + schedule.workload + " " +
                    std::to_string(schedule.seed) + "\n";
  for (const std::string& path : schedule.materialize) out += "m " + path + "\n";
  char line[512];
  for (const Request& r : schedule.requests) {
    std::snprintf(line, sizeof(line), "r %d %lld %s %s %s %lld %lld %d %s %s\n", r.conn,
                  static_cast<long long>(r.seq), PhaseName(r.phase), KindName(r.kind),
                  r.path.c_str(), static_cast<long long>(r.source),
                  static_cast<long long>(r.target), r.k, r.source_name.c_str(),
                  r.target_name.c_str());
    out += line;
  }
  return out;
}

bool ParseSchedule(const std::string& text, Schedule* schedule, std::string* error) {
  std::istringstream in(text);
  std::string magic;
  int version = 0;
  in >> magic >> version >> schedule->workload >> schedule->seed;
  if (magic != "perfbench-schedule" || version != 1 || !IsWorkload(schedule->workload)) {
    *error = "not a perfbench schedule";
    return false;
  }
  std::string tag;
  while (in >> tag) {
    if (tag == "m") {
      std::string path;
      in >> path;
      schedule->materialize.push_back(path);
      continue;
    }
    if (tag != "r") {
      *error = "unknown schedule line '" + tag + "'";
      return false;
    }
    Request r;
    long long seq = 0, source = 0, target = 0;
    std::string phase, kind;
    in >> r.conn >> seq >> phase >> kind >> r.path >> source >> target >> r.k >>
        r.source_name >> r.target_name;
    if (!in) {
      *error = "truncated schedule line";
      return false;
    }
    r.seq = seq;
    r.source = source;
    r.target = target;
    if (phase == "warm") r.phase = Phase::kWarm;
    else if (phase == "timed") r.phase = Phase::kTimed;
    else if (phase == "cold") r.phase = Phase::kCold;
    else if (phase == "hot") r.phase = Phase::kHot;
    else {
      *error = "unknown phase '" + phase + "'";
      return false;
    }
    if (kind == "pair") r.kind = Kind::kPair;
    else if (kind == "single") r.kind = Kind::kSingle;
    else if (kind == "topk") r.kind = Kind::kTopK;
    else {
      *error = "unknown kind '" + kind + "'";
      return false;
    }
    schedule->requests.push_back(std::move(r));
  }
  return true;
}

uint64_t Fnv1a(const std::string& bytes) {
  uint64_t hash = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    hash ^= c;
    hash *= 0x100000001b3ull;
  }
  return hash;
}

bool ReadFile(const std::string& path, std::string* contents) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *contents = buffer.str();
  return static_cast<bool>(in) || in.eof();
}

bool WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  out << contents;
  return static_cast<bool>(out);
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

std::string Num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace perfbench
