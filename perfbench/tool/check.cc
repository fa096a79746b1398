// `perfbench_tool check`: compares sampled answers with an exhaustive
// oracle built on the same graph. The oracle materializes both reachable
// halves of a path once (Definition 9 of the paper, through the library's
// uncached chain products) and scores EVERY target of a source by the
// cosine of Definition 10 — no cache, store, pruning, frontier, service or
// codec on its path.
//
// Answer file lines (one answer each):
//   a|n <conn> <seq> <tolerance> score|row|list <count> <values...>
// `a` lines come from the socket (ids), `n` lines from CLI output (names).
// A list holds (target, score) pairs in rank order; a row holds one score
// per target; a score is one pair score.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/path_matrix.h"
#include "datagen/io.h"
#include "hin/metapath.h"
#include "tool/common.h"
#include "tool/tool.h"

namespace perfbench {
namespace {

using hetesim::HinGraph;
using hetesim::Index;
using hetesim::MetaPath;
using hetesim::SparseMatrix;

struct Answer {
  bool by_name = false;
  int conn = 0;
  int64_t seq = 0;
  double tolerance = 0;
  std::string shape;
  std::vector<std::string> tokens;
};

class PathOracle {
 public:
  PathOracle(const HinGraph& graph, const MetaPath& path) {
    const hetesim::PathDecomposition decomposition = hetesim::DecomposePath(graph, path);
    left_ = hetesim::LeftReachMatrix(decomposition);
    right_ = hetesim::RightReachMatrix(decomposition);
    right_norms_.resize(static_cast<size_t>(right_.rows()));
    for (Index t = 0; t < right_.rows(); ++t) right_norms_[t] = Norm(right_, t);
  }

  /// HeteSim(source, t | path) for every target t.
  std::vector<double> Row(Index source) const {
    std::vector<double> scores(static_cast<size_t>(right_.rows()), 0.0);
    const double source_norm = Norm(left_, source);
    if (source_norm == 0.0) return scores;
    std::vector<double> u(static_cast<size_t>(left_.cols()), 0.0);
    const auto cols = left_.RowIndices(source);
    const auto values = left_.RowValues(source);
    for (size_t i = 0; i < cols.size(); ++i) u[cols[i]] = values[i];
    for (Index t = 0; t < right_.rows(); ++t) {
      if (right_norms_[t] == 0.0) continue;
      const auto t_cols = right_.RowIndices(t);
      const auto t_values = right_.RowValues(t);
      double dot = 0.0;
      for (size_t i = 0; i < t_cols.size(); ++i) dot += u[t_cols[i]] * t_values[i];
      scores[t] = dot / (source_norm * right_norms_[t]);
    }
    return scores;
  }

 private:
  static double Norm(const SparseMatrix& m, Index row) {
    double sum = 0.0;
    for (double v : m.RowValues(row)) sum += v * v;
    return std::sqrt(sum);
  }

  SparseMatrix left_;
  SparseMatrix right_;
  std::vector<double> right_norms_;
};

/// Empty when `answer` agrees with the oracle row `truth`, else the reason.
std::string Compare(const HinGraph& graph, const MetaPath& path, const Request& request,
                    const Answer& answer, const std::vector<double>& truth) {
  const double tol = answer.tolerance;
  std::ostringstream why;
  if (answer.shape == "score") {
    const double got = std::stod(answer.tokens.at(0));
    const double want = truth.at(static_cast<size_t>(request.target));
    if (std::fabs(got - want) > tol) why << "pair score " << Num(got) << " != " << Num(want);
    return why.str();
  }
  if (answer.shape == "row") {
    if (answer.tokens.size() != truth.size()) return "row length differs";
    for (size_t t = 0; t < truth.size(); ++t) {
      const double got = std::stod(answer.tokens[t]);
      if (std::fabs(got - truth[t]) > tol) {
        why << "row[" << t << "] " << Num(got) << " != " << Num(truth[t]);
        return why.str();
      }
    }
    return "";
  }
  // A ranked list: every listed score is the target's true score, the list
  // matches the true ranking rank by rank, and anything left out scores 0.
  std::vector<double> sorted = truth;
  std::sort(sorted.begin(), sorted.end(), std::greater<double>());
  const size_t n = answer.tokens.size() / 2;
  if (n > static_cast<size_t>(request.k) || n > truth.size()) return "list too long";
  std::vector<bool> seen(truth.size(), false);
  for (size_t i = 0; i < n; ++i) {
    const std::string& who = answer.tokens[2 * i];
    Index id = -1;
    if (answer.by_name) {
      hetesim::Result<Index> found = graph.FindNode(path.TargetType(), who);
      if (!found.ok()) return "unknown target '" + who + "'";
      id = *found;
    } else {
      id = std::stoll(who);
    }
    if (id < 0 || static_cast<size_t>(id) >= truth.size() || seen[id]) {
      return "bad or repeated target " + who;
    }
    seen[id] = true;
    const double got = std::stod(answer.tokens[2 * i + 1]);
    if (std::fabs(got - truth[id]) > tol || std::fabs(got - sorted[i]) > tol) {
      why << "rank " << i + 1 << ": " << who << " " << Num(got) << ", true "
          << Num(truth[id]) << ", true rank value " << Num(sorted[i]);
      return why.str();
    }
  }
  if (n < static_cast<size_t>(request.k) && n < sorted.size() && sorted[n] > tol) {
    why << "list stops at " << n << " but rank " << n + 1 << " scores " << Num(sorted[n]);
    return why.str();
  }
  return "";
}

}  // namespace

int RunCheck(const Flags& flags) {
  Schedule schedule;
  std::string text;
  std::string error;
  if (!ReadFile(flags.Get("schedule"), &text) || !ParseSchedule(text, &schedule, &error)) {
    std::fprintf(stderr, "check: cannot read schedule: %s\n", error.c_str());
    return 2;
  }
  std::map<std::pair<int, int64_t>, const Request*> by_position;
  for (const Request& r : schedule.requests) by_position[{r.conn, r.seq}] = &r;

  std::string answers_text;
  if (!ReadFile(flags.Get("answers"), &answers_text)) {
    std::fprintf(stderr, "check: cannot read answers\n");
    return 2;
  }
  // Group the answers by path so each oracle is built once.
  std::map<std::string, std::vector<std::pair<const Request*, Answer>>> by_path;
  std::istringstream lines(answers_text);
  std::string line;
  int64_t malformed = 0;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    std::istringstream in(line);
    std::string tag;
    Answer answer;
    size_t count = 0;
    in >> tag >> answer.conn >> answer.seq >> answer.tolerance >> answer.shape >> count;
    answer.by_name = tag == "n";
    const size_t tokens = answer.shape == "list" ? 2 * count : count;
    answer.tokens.resize(tokens);
    for (std::string& token : answer.tokens) in >> token;
    auto it = by_position.find({answer.conn, answer.seq});
    if (!in || (tag != "a" && tag != "n") || it == by_position.end()) {
      ++malformed;
      continue;
    }
    by_path[it->second->path].emplace_back(it->second, std::move(answer));
  }

  hetesim::Result<HinGraph> graph = hetesim::LoadHinGraphFromFile(flags.Get("graph"));
  if (!graph.ok()) {
    std::fprintf(stderr, "check: %s\n", graph.status().ToString().c_str());
    return 1;
  }
  int64_t checked = 0;
  int64_t mismatches = malformed;
  std::string first_mismatch = malformed > 0 ? "malformed answer line" : "";
  for (const auto& [spec, answers] : by_path) {
    const MetaPath path = MetaPath::Parse(graph->schema(), spec).value();
    const PathOracle oracle(*graph, path);
    for (const auto& [request, answer] : answers) {
      ++checked;
      const std::string why = Compare(*graph, path, *request, answer, oracle.Row(request->source));
      if (!why.empty()) {
        ++mismatches;
        if (first_mismatch.empty()) {
          first_mismatch = std::string(KindName(request->kind)) + " " + spec + " source " +
                           request->source_name + ": " + why;
        }
      }
    }
  }
  std::printf("{\"checked\": %lld, \"mismatches\": %lld, \"first_mismatch\": \"%s\"}\n",
              static_cast<long long>(checked), static_cast<long long>(mismatches),
              JsonEscape(first_mismatch).c_str());
  return 0;
}

}  // namespace perfbench
