#include "analyzer.h"

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <functional>
#include <map>
#include <sstream>
#include <utility>

namespace hetesim::lint {

namespace {

// --- repository model -----------------------------------------------------

/// Where a file sits in the tree; decides which rule families apply.
enum class Role {
  kSrc,    ///< src/** — every rule family
  kApp,    ///< tools/ bench/ examples/ — layering only
  kTest,   ///< tests/** — layering, plus fault-site reference scanning
  kOther,  ///< anything else (fixture stubs, docs snippets) — layering only
};

struct IncludeEdge {
  int line = 0;
  size_t offset = 0;
  std::string target;  ///< the quoted include path, verbatim
};

/// One function definition recovered by the token scan. Offsets index the
/// file's scan text; `body_begin`/`body_end` are the '{' and its '}'.
struct FunctionDef {
  std::string name;       ///< possibly qualified, e.g. "PathMatrixCache::Get"
  std::string qualifier;  ///< "PathMatrixCache" for the above, else ""
  std::string tail;       ///< last segment: "Get"
  size_t name_offset = 0;
  size_t params_begin = 0, params_end = 0;  ///< inside the parens
  size_t body_begin = 0, body_end = 0;
};

struct FileModel {
  std::string path;
  std::string module;  ///< "common", "core", …, "tools", "tests", "" unknown
  Role role = Role::kOther;
  const std::string* raw = nullptr;
  std::string scan;
  std::vector<size_t> starts;
  std::map<int, std::set<std::string>> allows;
  std::vector<IncludeEdge> includes;
  std::vector<FunctionDef> functions;
};

/// Layer ranks of the module DAG (DESIGN.md §15). Lower is further down the
/// stack; an include edge must point strictly down-rank (or stay inside one
/// module) unless the allowlist sanctions a same-rank edge.
const std::map<std::string, int>& LayerRanks() {
  static const std::map<std::string, int> kRanks = {
      {"common", 0},   {"matrix", 1},   {"hin", 2},       {"store", 2},
      {"core", 3},
      {"workload", 4}, {"service", 4},  {"learn", 4},     {"datagen", 4},
      {"baselines", 4},
      {"tools", 5},    {"bench", 5},    {"tests", 5},     {"examples", 5}};
  return kRanks;
}

std::string ModuleOfPath(const std::string& path) {
  if (path.rfind("src/", 0) == 0) {
    const size_t end = path.find('/', 4);
    if (end != std::string::npos) return path.substr(4, end - 4);
    return "";
  }
  const size_t end = path.find('/');
  if (end == std::string::npos) return "";
  const std::string head = path.substr(0, end);
  return LayerRanks().count(head) != 0 ? head : "";
}

Role RoleOfPath(const std::string& path) {
  if (path.rfind("src/", 0) == 0) return Role::kSrc;
  if (path.rfind("tests/", 0) == 0) return Role::kTest;
  if (path.rfind("tools/", 0) == 0 || path.rfind("bench/", 0) == 0 ||
      path.rfind("examples/", 0) == 0) {
    return Role::kApp;
  }
  return Role::kOther;
}

/// Module a quoted include target lands in: project includes are written
/// relative to src/ ("core/topk.h" -> core); anything whose first path
/// component is not a known module (gtest, same-directory includes) is
/// outside the layering model.
std::string ModuleOfInclude(const std::string& target) {
  const size_t end = target.find('/');
  if (end == std::string::npos) return "";
  const std::string head = target.substr(0, end);
  return LayerRanks().count(head) != 0 ? head : "";
}

std::vector<IncludeEdge> ParseIncludes(const std::string& scan,
                                       const std::string& raw) {
  std::vector<IncludeEdge> includes;
  std::istringstream scan_lines(scan);
  std::string scan_line;
  int line = 0;
  size_t offset = 0;
  while (std::getline(scan_lines, scan_line)) {
    ++line;
    const size_t line_offset = offset;
    offset += scan_line.size() + 1;
    const size_t hash = scan_line.find_first_not_of(" \t");
    if (hash == std::string::npos || scan_line[hash] != '#') continue;
    const size_t kw = scan_line.find("include", hash + 1);
    if (kw == std::string::npos ||
        scan_line.find_first_not_of(" \t", hash + 1) != kw) {
      continue;
    }
    // The scan text proves the directive is live (not commented out); the
    // raw text still holds the path the scan blanked.
    const size_t raw_end = raw.find('\n', line_offset);
    const std::string raw_line = raw.substr(
        line_offset, raw_end == std::string::npos ? std::string::npos
                                                  : raw_end - line_offset);
    const size_t quote = raw_line.find('"');
    if (quote == std::string::npos) continue;
    const size_t close = raw_line.find('"', quote + 1);
    if (close == std::string::npos) continue;
    includes.push_back(IncludeEdge{
        line, line_offset, raw_line.substr(quote + 1, close - quote - 1)});
  }
  return includes;
}

// --- function extraction --------------------------------------------------

bool IsDisqualifiedName(const std::string& tail) {
  static const std::set<std::string> kKeywords = {
      "if",       "for",      "while",   "switch",   "catch",    "return",
      "sizeof",   "alignof",  "decltype", "new",     "delete",   "throw",
      "do",       "else",     "case",    "default",  "void",     "int",
      "char",     "bool",     "double",  "float",    "auto",     "long",
      "short",    "unsigned", "signed",  "const",    "constexpr", "static",
      "inline",   "template", "typename", "using",   "namespace", "operator",
      "defined",  "assert",   "static_assert", "noexcept", "alignas",
      "explicit", "virtual",  "typedef", "co_await", "co_return", "co_yield"};
  return kKeywords.count(tail) != 0;
}

/// Offset one past the '}' matching the '{' at `open`; npos if unbalanced.
size_t SkipBraces(const std::string& text, size_t open) {
  int depth = 0;
  for (size_t i = open; i < text.size(); ++i) {
    if (text[i] == '{') ++depth;
    if (text[i] == '}' && --depth == 0) return i + 1;
  }
  return std::string::npos;
}

/// Recovers function definitions from the scan text: an identifier followed
/// by a balanced parameter list, then (across trailing qualifiers, lock
/// annotations, and member-initializer lists) a '{' body. Deliberately a
/// heuristic — control statements, declarations, macro definitions and
/// class heads are filtered out; nested lambdas are swallowed into their
/// enclosing function, which is the attribution the lock/poll rules want.
std::vector<FunctionDef> ExtractFunctions(const std::string& scan) {
  std::vector<FunctionDef> functions;
  size_t pos = 0;
  while (pos < scan.size()) {
    const size_t paren = scan.find('(', pos);
    if (paren == std::string::npos) break;
    pos = paren + 1;

    // Name: walk back over an optionally qualified identifier.
    size_t name_end = paren;
    while (name_end > 0 && std::isspace(static_cast<unsigned char>(
                               scan[name_end - 1])) != 0) {
      --name_end;
    }
    size_t name_begin = name_end;
    while (name_begin > 0 &&
           (IsIdentChar(scan[name_begin - 1]) || scan[name_begin - 1] == ':' ||
            scan[name_begin - 1] == '~')) {
      --name_begin;
    }
    if (name_begin == name_end) continue;
    const std::string name = scan.substr(name_begin, name_end - name_begin);
    const size_t last_sep = name.rfind("::");
    const std::string tail =
        last_sep == std::string::npos ? name : name.substr(last_sep + 2);
    if (tail.empty() || IsDisqualifiedName(tail) || IsDisqualifiedName(name)) {
      continue;
    }
    // `class CAPABILITY("x") Foo {`: the token before the name disqualifies.
    size_t prev_end = name_begin;
    while (prev_end > 0 &&
           std::isspace(static_cast<unsigned char>(scan[prev_end - 1])) != 0) {
      --prev_end;
    }
    size_t prev_begin = prev_end;
    while (prev_begin > 0 && IsIdentChar(scan[prev_begin - 1])) --prev_begin;
    const std::string prev = scan.substr(prev_begin, prev_end - prev_begin);
    if (prev == "class" || prev == "struct" || prev == "enum" ||
        prev == "union" || prev == "using") {
      continue;
    }

    const size_t params_close = SkipParens(scan, paren);
    if (params_close == std::string::npos) continue;

    // Forward from the ')' across `const noexcept ACQUIRE(mu) -> T` and
    // member-initializer lists to a '{' (definition) or ';' (declaration).
    // Any character outside the signature alphabet — notably '\\' from a
    // macro continuation — abandons the candidate.
    size_t body_open = std::string::npos;
    int depth = 0;
    bool abandoned = false;
    for (size_t i = params_close;
         i < scan.size() && i < params_close + 2000; ++i) {
      const char c = scan[i];
      if (c == '(') ++depth;
      if (c == ')') --depth;
      if (depth > 0) continue;
      if (c == ';' || depth < 0) break;
      if (c == '{') {
        body_open = i;
        break;
      }
      if (IsIdentChar(c) || std::isspace(static_cast<unsigned char>(c)) != 0 ||
          c == ':' || c == ',' || c == '&' || c == '*' || c == '<' ||
          c == '>' || c == '-' || c == '=' || c == '[' || c == ']' ||
          c == ')' ) {
        continue;
      }
      abandoned = true;
      break;
    }
    if (abandoned || body_open == std::string::npos) continue;
    const size_t body_close = SkipBraces(scan, body_open);
    if (body_close == std::string::npos) continue;

    FunctionDef fn;
    fn.name = name;
    fn.qualifier = last_sep == std::string::npos ? "" : name.substr(0, last_sep);
    // Nested qualifiers ("A::B::C") keep only the innermost class.
    const size_t q_sep = fn.qualifier.rfind("::");
    if (q_sep != std::string::npos) fn.qualifier = fn.qualifier.substr(q_sep + 2);
    fn.tail = tail;
    fn.name_offset = name_begin;
    fn.params_begin = paren + 1;
    fn.params_end = params_close - 1;
    fn.body_begin = body_open;
    fn.body_end = body_close - 1;
    functions.push_back(std::move(fn));
    // Skip the body wholesale: nested lambdas belong to this function, and
    // class bodies never reach here (a class head has no parameter list).
    pos = body_close;
  }
  return functions;
}

// --- shared finding emission ----------------------------------------------

struct Analysis {
  std::vector<FileModel> files;
  std::vector<Diagnostic>* out = nullptr;

  void Emit(const FileModel& fm, size_t offset, const std::string& rule,
            std::string message) {
    const int line = LineOf(fm.starts, offset);
    const auto it = fm.allows.find(line);
    if (it != fm.allows.end() && it->second.count(rule) != 0) return;
    out->push_back(Diagnostic{fm.path, line, rule, std::move(message)});
  }

  /// For findings anchored at config files (registry) rather than sources.
  void EmitAt(const std::string& path, int line, const std::string& rule,
              std::string message) {
    out->push_back(Diagnostic{path, line, rule, std::move(message)});
  }
};

// --- rule family: layering ------------------------------------------------

/// `from -> to` module pairs sanctioned by tools/lint/layering_allow.txt.
std::set<std::pair<std::string, std::string>> ParseLayeringAllow(
    const std::string& content) {
  std::set<std::pair<std::string, std::string>> allowed;
  std::istringstream lines(content);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t comment = line.find('#');
    if (comment != std::string::npos) line = line.substr(0, comment);
    const size_t arrow = line.find("->");
    if (arrow == std::string::npos) continue;
    auto trim = [](std::string s) {
      const size_t first = s.find_first_not_of(" \t\r");
      const size_t last = s.find_last_not_of(" \t\r");
      return first == std::string::npos ? std::string()
                                        : s.substr(first, last - first + 1);
    };
    const std::string from = trim(line.substr(0, arrow));
    const std::string to = trim(line.substr(arrow + 2));
    if (!from.empty() && !to.empty()) allowed.emplace(from, to);
  }
  return allowed;
}

/// Resolves an include target to a modeled file index, or npos. Project
/// includes are src/-relative; tool-internal includes ("linter.h") resolve
/// against the including file's directory.
size_t ResolveInclude(const std::map<std::string, size_t>& by_path,
                      const std::string& includer,
                      const std::string& target) {
  auto it = by_path.find("src/" + target);
  if (it != by_path.end()) return it->second;
  const size_t slash = includer.find_last_of('/');
  if (slash != std::string::npos) {
    it = by_path.find(includer.substr(0, slash + 1) + target);
    if (it != by_path.end()) return it->second;
  }
  it = by_path.find(target);
  return it != by_path.end() ? it->second : static_cast<size_t>(-1);
}

void CheckLayering(Analysis& a, const AnalyzerConfig& config) {
  const auto allowed = ParseLayeringAllow(config.layering_allow);
  const auto& ranks = LayerRanks();

  std::map<std::string, size_t> by_path;
  for (size_t i = 0; i < a.files.size(); ++i) by_path[a.files[i].path] = i;

  // Module-level edges (with one witness each) and file-level edges.
  std::map<std::pair<std::string, std::string>,
           std::pair<const FileModel*, const IncludeEdge*>>
      module_edges;
  std::map<size_t, std::vector<std::pair<size_t, const IncludeEdge*>>>
      file_edges;

  for (const FileModel& fm : a.files) {
    for (const IncludeEdge& inc : fm.includes) {
      const size_t target_idx = ResolveInclude(by_path, fm.path, inc.target);
      if (target_idx != static_cast<size_t>(-1)) {
        file_edges[by_path.at(fm.path)].emplace_back(target_idx, &inc);
      }
      const std::string to = ModuleOfInclude(inc.target);
      if (fm.module.empty() || to.empty() || to == fm.module) continue;
      module_edges.emplace(std::make_pair(fm.module, to),
                           std::make_pair(&fm, &inc));
      const int from_rank = ranks.at(fm.module);
      const int to_rank = ranks.at(to);
      const bool sanctioned = allowed.count({fm.module, to}) != 0;
      if (to_rank < from_rank || (to_rank == from_rank && sanctioned)) {
        continue;
      }
      std::string message = "#include \"" + inc.target + "\" makes module '" +
                            fm.module + "' depend on '" + to + "', ";
      if (to_rank > from_rank) {
        message += "an upper layer — the layering DAG (common < matrix < hin "
                   "< core < apps < tools) forbids upward edges";
      } else {
        message += "a sibling layer — same-rank edges need an entry in " +
                   config.layering_allow_path;
      }
      a.Emit(fm, inc.offset, "layer-order", message);
    }
  }

  // Module-level cycles (possible only through allowlisted same-rank edges,
  // since legal edges point strictly down-rank).
  {
    std::map<std::string, std::vector<std::string>> graph;
    for (const auto& [edge, witness] : module_edges) {
      graph[edge.first].push_back(edge.second);
    }
    std::set<std::string> done;
    std::vector<std::string> stack;
    std::set<std::string> on_stack;
    std::set<std::string> reported;
    std::function<void(const std::string&)> dfs =
        [&](const std::string& node) {
          if (on_stack.count(node) != 0) {
            // Extract the cycle from the stack tail.
            auto start = std::find(stack.begin(), stack.end(), node);
            std::vector<std::string> cycle(start, stack.end());
            std::string key;
            const size_t min_at = static_cast<size_t>(
                std::min_element(cycle.begin(), cycle.end()) - cycle.begin());
            for (size_t i = 0; i < cycle.size(); ++i) {
              key += cycle[(min_at + i) % cycle.size()] + ">";
            }
            if (!reported.insert(key).second) return;
            std::string path;
            for (const std::string& m : cycle) path += m + " -> ";
            path += node;
            const auto& [fm, inc] =
                module_edges.at({cycle.back(), node});
            a.Emit(*fm, inc->offset, "module-cycle",
                   "module dependency cycle: " + path +
                       "; break the cycle (allowlisted edges do not excuse "
                       "cycles)");
            return;
          }
          if (done.count(node) != 0) return;
          stack.push_back(node);
          on_stack.insert(node);
          for (const std::string& next : graph[node]) dfs(next);
          stack.pop_back();
          on_stack.erase(node);
          done.insert(node);
        };
    for (const auto& [node, _] : graph) dfs(node);
  }

  // File-level include cycles.
  {
    enum class Mark { kNone, kActive, kDone };
    std::vector<Mark> marks(a.files.size(), Mark::kNone);
    std::vector<size_t> stack;
    std::set<std::string> reported;
    std::function<void(size_t)> dfs = [&](size_t node) {
      if (marks[node] == Mark::kActive) {
        auto start = std::find(stack.begin(), stack.end(), node);
        std::vector<size_t> cycle(start, stack.end());
        std::string key;
        const size_t min_at = static_cast<size_t>(
            std::min_element(cycle.begin(), cycle.end(),
                             [&](size_t x, size_t y) {
                               return a.files[x].path < a.files[y].path;
                             }) -
            cycle.begin());
        for (size_t i = 0; i < cycle.size(); ++i) {
          key += a.files[cycle[(min_at + i) % cycle.size()]].path + ">";
        }
        if (!reported.insert(key).second) return;
        std::string path;
        for (const size_t f : cycle) path += a.files[f].path + " -> ";
        path += a.files[node].path;
        // Anchor at the include edge closing the cycle.
        const FileModel& closer = a.files[cycle.back()];
        const IncludeEdge* witness = nullptr;
        for (const auto& [tgt, inc] : file_edges[cycle.back()]) {
          if (tgt == node) witness = inc;
        }
        a.Emit(closer, witness != nullptr ? witness->offset : 0,
               "include-cycle", "include cycle: " + path);
        return;
      }
      if (marks[node] == Mark::kDone) return;
      marks[node] = Mark::kActive;
      stack.push_back(node);
      for (const auto& [next, _] : file_edges[node]) dfs(next);
      stack.pop_back();
      marks[node] = Mark::kDone;
    };
    for (size_t i = 0; i < a.files.size(); ++i) dfs(i);
  }

  // Orphan headers: a src/ header whose only includers are its own .cc and
  // tests is code that nothing ships.
  std::vector<bool> used(a.files.size(), false);
  for (const auto& [from, edges] : file_edges) {
    const FileModel& includer = a.files[from];
    if (includer.role == Role::kTest) continue;
    for (const auto& [to, _] : edges) {
      const std::string& header = a.files[to].path;
      if (includer.path != header.substr(0, header.size() - 2) + ".cc") {
        used[to] = true;
      }
    }
  }
  for (size_t i = 0; i < a.files.size(); ++i) {
    const FileModel& fm = a.files[i];
    if (fm.role != Role::kSrc || used[i] || !fm.path.ends_with(".h")) continue;
    a.Emit(fm, 0, "orphan-header",
           "header is included only by its own .cc and by tests: no binary, "
           "bench, example or other module uses it; delete it or use it");
  }
}

// --- rule family: lock order ----------------------------------------------

struct LockAcquisition {
  std::string lock;  ///< canonical id, e.g. "PathMatrixCache::mutex_"
  size_t offset = 0;
  size_t hold_end = 0;  ///< offset after which the lock is released
};

struct CallSite {
  size_t fn = 0;  ///< index into the global function list
  size_t offset = 0;
};

/// Per-function lock/call facts plus back-pointers into the model.
struct LockFunction {
  const FileModel* file = nullptr;
  const FunctionDef* def = nullptr;
  std::vector<LockAcquisition> acquisitions;
  std::vector<CallSite> calls;
  std::set<std::string> may_acquire;  ///< transitive, after fixed point
};

std::string NormalizeLockExpr(std::string expr) {
  std::string out;
  for (size_t i = 0; i < expr.size(); ++i) {
    if (std::isspace(static_cast<unsigned char>(expr[i])) != 0) continue;
    if (expr[i] == '-' && i + 1 < expr.size() && expr[i + 1] == '>') {
      out += '.';
      ++i;
      continue;
    }
    out += expr[i];
  }
  if (out.rfind("this.", 0) == 0) out = out.substr(5);
  return out;
}

/// Offset of the '}' closing the innermost scope containing `offset`, or
/// `body_end` when the acquisition sits directly in the function scope.
size_t EnclosingScopeEnd(const std::string& scan, const FunctionDef& fn,
                         size_t offset) {
  std::vector<size_t> stack;
  for (size_t i = fn.body_begin; i < fn.body_end; ++i) {
    if (i == offset) {
      // The innermost open brace at this point closes where?
      if (stack.empty()) return fn.body_end;
      const size_t close = SkipBraces(scan, stack.back());
      return close == std::string::npos ? fn.body_end : close - 1;
    }
    if (scan[i] == '{') stack.push_back(i);
    if (scan[i] == '}' && !stack.empty()) stack.pop_back();
  }
  return fn.body_end;
}

std::string LockScope(const FileModel& fm, const FunctionDef& fn) {
  return fn.qualifier.empty() ? Stem(Basename(fm.path)) : fn.qualifier;
}

void CollectAcquisitions(const FileModel& fm, const FunctionDef& fn,
                         LockFunction* out) {
  const std::string& scan = fm.scan;
  const std::string scope = LockScope(fm, fn);
  // RAII: `MutexLock guard(expr);` held to the end of the enclosing brace.
  for (size_t pos = FindWord(scan, "MutexLock", fn.body_begin);
       pos != std::string::npos && pos < fn.body_end;
       pos = FindWord(scan, "MutexLock", pos + 1)) {
    size_t i = SkipWs(scan, pos + 9);
    while (i < fn.body_end && IsIdentChar(scan[i])) ++i;  // guard name
    i = SkipWs(scan, i);
    if (i >= fn.body_end || scan[i] != '(') continue;
    const size_t close = SkipParens(scan, i);
    if (close == std::string::npos || close > fn.body_end) continue;
    const std::string expr =
        NormalizeLockExpr(scan.substr(i + 1, close - i - 2));
    if (expr.empty()) continue;
    out->acquisitions.push_back(LockAcquisition{
        scope + "::" + expr, pos, EnclosingScopeEnd(scan, fn, pos)});
  }
  // Manual: `expr.Lock()` held until `expr.Unlock()` (or function end).
  for (size_t pos = FindWord(scan, "Lock", fn.body_begin);
       pos != std::string::npos && pos < fn.body_end;
       pos = FindWord(scan, "Lock", pos + 1)) {
    const bool member =
        (pos >= 1 && scan[pos - 1] == '.') ||
        (pos >= 2 && scan.compare(pos - 2, 2, "->") == 0);
    if (!member) continue;
    size_t i = SkipWs(scan, pos + 4);
    if (i >= fn.body_end || scan[i] != '(') continue;
    // Receiver: walk back over the object expression.
    size_t recv_end = pos - 1;
    if (scan[recv_end] != '.') recv_end = pos - 2;  // '->'
    size_t recv_begin = recv_end;
    while (recv_begin > fn.body_begin &&
           (IsIdentChar(scan[recv_begin - 1]) || scan[recv_begin - 1] == '.' ||
            scan[recv_begin - 1] == '>' || scan[recv_begin - 1] == '-')) {
      --recv_begin;
    }
    const std::string recv =
        NormalizeLockExpr(scan.substr(recv_begin, recv_end - recv_begin));
    if (recv.empty()) continue;
    size_t hold_end = fn.body_end;
    for (size_t u = FindWord(scan, "Unlock", i);
         u != std::string::npos && u < fn.body_end;
         u = FindWord(scan, "Unlock", u + 1)) {
      size_t ub = u >= 1 && scan[u - 1] == '.' ? u - 1
                  : u >= 2 && scan.compare(u - 2, 2, "->") == 0 ? u - 2
                                                                : u;
      size_t rb = ub;
      while (rb > fn.body_begin &&
             (IsIdentChar(scan[rb - 1]) || scan[rb - 1] == '.' ||
              scan[rb - 1] == '>' || scan[rb - 1] == '-')) {
        --rb;
      }
      if (NormalizeLockExpr(scan.substr(rb, ub - rb)) == recv) {
        hold_end = u;
        break;
      }
    }
    out->acquisitions.push_back(
        LockAcquisition{scope + "::" + recv, pos, hold_end});
  }
  std::sort(out->acquisitions.begin(), out->acquisitions.end(),
            [](const LockAcquisition& x, const LockAcquisition& y) {
              return x.offset < y.offset;
            });
}

void CheckLockOrder(Analysis& a) {
  // Function universe: src-role files only.
  std::vector<LockFunction> fns;
  for (const FileModel& fm : a.files) {
    if (fm.role != Role::kSrc) continue;
    if (Basename(fm.path) == "mutex.h") continue;  // the wrapper itself
    for (const FunctionDef& def : fm.functions) {
      LockFunction lf;
      lf.file = &fm;
      lf.def = &def;
      CollectAcquisitions(fm, def, &lf);
      fns.push_back(std::move(lf));
    }
  }

  // Call resolution: a callee name is usable only when it maps to exactly
  // one function in the model (ambiguous names would fabricate edges).
  // Names shared with standard-library members are never unique in
  // practice — `buckets_[i].load()` on an atomic must not resolve to a
  // project method that happens to be called `load` — so they are excluded
  // outright.
  static const std::set<std::string> kStdLikeTails = {
      "load",  "store", "exchange", "size",  "empty", "begin", "end",
      "clear", "reset", "get",      "at",    "front", "back",  "count",
      "find",  "insert", "erase",   "swap",  "data",  "str",   "value",
      "wait",  "min",   "max",      "abs",   "push_back", "emplace_back",
      "reserve", "resize", "append", "substr", "compare"};
  std::map<std::string, std::vector<size_t>> by_tail;
  for (size_t i = 0; i < fns.size(); ++i) {
    by_tail[fns[i].def->tail].push_back(i);
  }
  std::map<std::string, size_t> unique_tail;
  for (const auto& [tail, ids] : by_tail) {
    if (ids.size() == 1 && kStdLikeTails.count(tail) == 0) {
      unique_tail[tail] = ids[0];
    }
  }

  // Seed may_acquire with direct acquisitions, collect call sites to
  // uniquely resolved callees, then iterate to a fixed point.
  for (size_t i = 0; i < fns.size(); ++i) {
    LockFunction& lf = fns[i];
    for (const LockAcquisition& acq : lf.acquisitions) {
      lf.may_acquire.insert(acq.lock);
    }
    const std::string& scan = lf.file->scan;
    for (const auto& [tail, callee] : unique_tail) {
      if (callee == i) continue;
      for (size_t pos = FindWord(scan, tail, lf.def->body_begin);
           pos != std::string::npos && pos < lf.def->body_end;
           pos = FindWord(scan, tail, pos + 1)) {
        const size_t after = SkipWs(scan, pos + tail.size());
        if (after >= scan.size() || scan[after] != '(') continue;
        lf.calls.push_back(CallSite{callee, pos});
      }
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (LockFunction& lf : fns) {
      for (const CallSite& call : lf.calls) {
        for (const std::string& lock : fns[call.fn].may_acquire) {
          changed |= lf.may_acquire.insert(lock).second;
        }
      }
    }
  }

  // Build the global lock-order graph: lock A -> lock B when B is acquired
  // (directly or through a call) while A is held.
  struct Witness {
    std::string file;
    int line = 0;
    std::string function;
    std::string via;  ///< callee name for propagated edges, "" for direct
  };
  std::map<std::pair<std::string, std::string>, Witness> edges;
  for (const LockFunction& lf : fns) {
    for (const LockAcquisition& held : lf.acquisitions) {
      for (const LockAcquisition& next : lf.acquisitions) {
        if (next.offset <= held.offset || next.offset >= held.hold_end) {
          continue;
        }
        if (next.lock == held.lock) {
          a.Emit(*lf.file, next.offset, "lock-reentry",
                  "lock '" + held.lock + "' acquired in '" + lf.def->name +
                      "' while already held (Mutex is non-reentrant: this "
                      "deadlocks)");
          continue;
        }
        edges.emplace(
            std::make_pair(held.lock, next.lock),
            Witness{lf.file->path, LineOf(lf.file->starts, next.offset),
                    lf.def->name, ""});
      }
      for (const CallSite& call : lf.calls) {
        if (call.offset <= held.offset || call.offset >= held.hold_end) {
          continue;
        }
        for (const std::string& lock : fns[call.fn].may_acquire) {
          if (lock == held.lock) continue;  // re-entry via calls is too
                                            // imprecise to assert on
          edges.emplace(
              std::make_pair(held.lock, lock),
              Witness{lf.file->path, LineOf(lf.file->starts, call.offset),
                      lf.def->name, fns[call.fn].def->name});
        }
      }
    }
  }

  // Cycle detection over the lock graph.
  std::map<std::string, std::vector<std::string>> graph;
  for (const auto& [edge, _] : edges) graph[edge.first].push_back(edge.second);
  std::set<std::string> done;
  std::vector<std::string> stack;
  std::set<std::string> on_stack;
  std::set<std::string> reported;
  std::function<void(const std::string&)> dfs = [&](const std::string& node) {
    if (on_stack.count(node) != 0) {
      auto start = std::find(stack.begin(), stack.end(), node);
      std::vector<std::string> cycle(start, stack.end());
      std::string key;
      const size_t min_at = static_cast<size_t>(
          std::min_element(cycle.begin(), cycle.end()) - cycle.begin());
      for (size_t i = 0; i < cycle.size(); ++i) {
        key += cycle[(min_at + i) % cycle.size()] + ">";
      }
      if (!reported.insert(key).second) return;
      // Render the full cycle path with witnesses.
      std::string path;
      for (size_t i = 0; i < cycle.size(); ++i) {
        const std::string& from = cycle[i];
        const std::string& to = i + 1 < cycle.size() ? cycle[i + 1] : node;
        const Witness& w = edges.at({from, to});
        path += from + " -> " + to + " (" + w.file + ":" +
                std::to_string(w.line) + " in " + w.function +
                (w.via.empty() ? "" : " via " + w.via) + ")";
        if (i + 1 < cycle.size()) path += ", ";
      }
      const Witness& w0 = edges.at(
          {cycle[0], cycle.size() > 1 ? cycle[1] : node});
      // Anchor the diagnostic at the first witness site.
      Diagnostic diag{w0.file, w0.line, "lock-order",
                      "lock-order cycle (potential deadlock): " + path +
                          "; pick one global acquisition order"};
      // Honor a same-line allow at the anchor.
      for (const FileModel& fm : a.files) {
        if (fm.path != diag.file) continue;
        const auto it = fm.allows.find(diag.line);
        if (it != fm.allows.end() && it->second.count("lock-order") != 0) {
          return;
        }
      }
      a.out->push_back(std::move(diag));
      return;
    }
    if (done.count(node) != 0) return;
    stack.push_back(node);
    on_stack.insert(node);
    for (const std::string& next : graph[node]) dfs(next);
    stack.pop_back();
    on_stack.erase(node);
    done.insert(node);
  };
  for (const auto& [node, _] : graph) dfs(node);
}

// --- rule family: cancellation responsiveness -----------------------------

/// Outermost loops below this many lines are treated as trivial
/// post-processing (copying k results, joining strings) and exempt.
constexpr int kTrivialLoopLines = 4;

struct LoopExtent {
  size_t keyword = 0;  ///< offset of for/while/do
  size_t begin = 0, end = 0;
};

/// Outermost loops of `fn` (nested loops are part of their parent's
/// extent). Consumes `do { } while (...)` as one loop.
std::vector<LoopExtent> ExtractOutermostLoops(const std::string& scan,
                                              const FunctionDef& fn) {
  std::vector<LoopExtent> loops;
  size_t pos = fn.body_begin + 1;
  while (pos < fn.body_end) {
    size_t best = std::string::npos;
    std::string kind;
    for (const char* kw : {"for", "while", "do"}) {
      const size_t at = FindWord(scan, kw, pos);
      if (at != std::string::npos && at < fn.body_end && at < best) {
        best = at;
        kind = kw;
      }
    }
    if (best == std::string::npos) break;
    pos = best + kind.size();
    size_t body_start = 0;
    if (kind == "do") {
      body_start = SkipWs(scan, pos);
    } else {
      const size_t paren = SkipWs(scan, pos);
      if (paren >= fn.body_end || scan[paren] != '(') continue;
      const size_t close = SkipParens(scan, paren);
      if (close == std::string::npos || close > fn.body_end) continue;
      body_start = SkipWs(scan, close);
    }
    if (body_start >= fn.body_end) break;
    size_t extent_end;
    if (scan[body_start] == '{') {
      extent_end = SkipBraces(scan, body_start);
      if (extent_end == std::string::npos || extent_end > fn.body_end) break;
    } else {
      // Single statement: to the ';' at paren/brace depth zero.
      int depth = 0;
      extent_end = body_start;
      while (extent_end < fn.body_end) {
        const char c = scan[extent_end];
        if (c == '(' || c == '{') ++depth;
        if (c == ')' || c == '}') --depth;
        if (c == ';' && depth == 0) break;
        ++extent_end;
      }
    }
    if (kind == "do") {
      // Consume the trailing `while (...)` so it is not seen as a loop.
      const size_t trailer = FindWord(scan, "while", extent_end);
      if (trailer != std::string::npos && trailer < fn.body_end) {
        const size_t paren = SkipWs(scan, trailer + 5);
        if (paren < fn.body_end && scan[paren] == '(') {
          const size_t close = SkipParens(scan, paren);
          if (close != std::string::npos) extent_end = close;
        }
      }
    }
    loops.push_back(LoopExtent{best, body_start, extent_end});
    pos = extent_end + 1;
  }
  return loops;
}

/// Identifier names bound to QueryContext / CancelToken parameters.
std::vector<std::string> ContextParamNames(const std::string& scan,
                                           const FunctionDef& fn) {
  std::vector<std::string> names;
  for (const char* type : {"QueryContext", "CancelToken"}) {
    for (size_t pos = FindWord(scan, type, fn.params_begin);
         pos != std::string::npos && pos < fn.params_end;
         pos = FindWord(scan, type, pos + 1)) {
      size_t i = pos + std::string(type).size();
      // Skip cv/ref/pointer decoration to the parameter name.
      while (i < fn.params_end) {
        i = SkipWs(scan, i);
        if (i < fn.params_end && (scan[i] == '&' || scan[i] == '*')) {
          ++i;
          continue;
        }
        break;
      }
      size_t name_end = i;
      while (name_end < fn.params_end && IsIdentChar(scan[name_end])) {
        ++name_end;
      }
      if (name_end > i) names.push_back(scan.substr(i, name_end - i));
    }
  }
  return names;
}

void CheckCancellation(Analysis& a) {
  static const char* const kPollTokens[] = {
      "CheckAlive",   "Expired",     "cancelled",          "deadline_expired",
      "ShouldPoll",   "ShouldStop",  "HETESIM_FAULT_POINT", "PollStride",
      "QueryContext", "CancelToken", "SharedStatus"};
  for (const FileModel& fm : a.files) {
    if (fm.role != Role::kSrc) continue;
    for (const FunctionDef& fn : fm.functions) {
      const std::string params =
          fm.scan.substr(fn.params_begin, fn.params_end - fn.params_begin);
      if (FindWord(params, "QueryContext", 0) == std::string::npos &&
          FindWord(params, "CancelToken", 0) == std::string::npos) {
        continue;
      }
      const std::vector<std::string> ctx_names = ContextParamNames(fm.scan, fn);
      for (const LoopExtent& loop : ExtractOutermostLoops(fm.scan, fn)) {
        const int lines = LineOf(fm.starts, loop.end) -
                          LineOf(fm.starts, loop.keyword);
        if (lines < kTrivialLoopLines) continue;
        bool polls = false;
        for (const char* token : kPollTokens) {
          size_t at = FindWord(fm.scan, token, loop.begin);
          if (at != std::string::npos && at < loop.end) {
            polls = true;
            break;
          }
        }
        for (const std::string& name : ctx_names) {
          if (polls) break;
          size_t at = FindWord(fm.scan, name, loop.begin);
          if (at != std::string::npos && at < loop.end) polls = true;
        }
        if (polls) continue;
        a.Emit(fm, loop.keyword, "cancel-poll",
               "loop in '" + fn.name +
                   "' (takes QueryContext/CancelToken) never polls for "
                   "cancellation or forwards the context; check "
                   "ctx.CheckAlive()/PollStrideController in the loop body "
                   "so deadlines hold");
      }
    }
  }
}

// --- rule family: fault-point registry ------------------------------------

struct RegistryEntry {
  std::string site;
  int line = 0;
};

std::vector<RegistryEntry> ParseFaultRegistry(const std::string& content) {
  std::vector<RegistryEntry> entries;
  std::istringstream lines(content);
  std::string line;
  int n = 0;
  while (std::getline(lines, line)) {
    ++n;
    const size_t comment = line.find('#');
    if (comment != std::string::npos) line = line.substr(0, comment);
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos) continue;
    const size_t last = line.find_last_not_of(" \t\r");
    entries.push_back(RegistryEntry{line.substr(first, last - first + 1), n});
  }
  return entries;
}

void CheckFaultRegistry(Analysis& a, const AnalyzerConfig& config) {
  if (!config.has_fault_registry) return;
  const std::vector<RegistryEntry> registry =
      ParseFaultRegistry(config.fault_registry);
  std::set<std::string> registered;
  for (const RegistryEntry& entry : registry) registered.insert(entry.site);

  // Sites used in src/ (the macro's own definition/doc file is exempt).
  std::map<std::string, int> used;  // site -> occurrence count
  for (const FileModel& fm : a.files) {
    if (fm.role != Role::kSrc) continue;
    if (Stem(Basename(fm.path)) == "fault_injection") continue;
    for (size_t pos = FindWord(fm.scan, "HETESIM_FAULT_POINT", 0);
         pos != std::string::npos;
         pos = FindWord(fm.scan, "HETESIM_FAULT_POINT", pos + 1)) {
      const size_t open = SkipWs(fm.scan, pos + 19);
      if (open >= fm.scan.size() || fm.scan[open] != '(') continue;
      const size_t close = SkipParens(fm.scan, open);
      if (close == std::string::npos) continue;
      // The scan blanked the literal; the raw text still holds it.
      const size_t quote = fm.raw->find('"', open);
      if (quote == std::string::npos || quote >= close) continue;
      const size_t endq = fm.raw->find('"', quote + 1);
      if (endq == std::string::npos || endq >= close) continue;
      const std::string site = fm.raw->substr(quote + 1, endq - quote - 1);
      ++used[site];
      if (registered.count(site) == 0) {
        a.Emit(fm, pos, "fault-unregistered",
               "fault point \"" + site + "\" is not listed in " +
                   config.fault_registry_path +
                   "; register it and cover it with a resilience test");
      }
    }
  }

  for (const RegistryEntry& entry : registry) {
    if (used.count(entry.site) == 0) {
      a.EmitAt(config.fault_registry_path, entry.line, "fault-stale",
               "registry entry \"" + entry.site +
                   "\" matches no HETESIM_FAULT_POINT in src/; retire the "
                   "entry (and its tests) or restore the site");
      continue;
    }
    bool tested = false;
    const std::string quoted = "\"" + entry.site + "\"";
    for (const FileModel& fm : a.files) {
      if (fm.role != Role::kTest) continue;
      if (fm.raw->find(quoted) != std::string::npos) {
        tested = true;
        break;
      }
    }
    if (!tested) {
      a.EmitAt(config.fault_registry_path, entry.line, "fault-untested",
               "fault site \"" + entry.site +
                   "\" is referenced by no test under tests/; every site "
                   "needs a deterministic resilience test");
    }
  }
}

}  // namespace

// --- public API -----------------------------------------------------------

AnalyzerReport AnalyzeRepo(const std::vector<SourceFile>& files,
                           const AnalyzerConfig& config) {
  AnalyzerReport report;
  Analysis a;
  a.out = &report.findings;
  a.files.reserve(files.size());
  for (const SourceFile& sf : files) {
    FileModel fm;
    fm.path = sf.path;
    fm.module = ModuleOfPath(sf.path);
    fm.role = RoleOfPath(sf.path);
    fm.raw = &sf.content;
    fm.scan = StripForScan(sf.content);
    fm.starts = LineStarts(sf.content);
    fm.allows = ParseSuppressions(sf.content);
    fm.includes = ParseIncludes(fm.scan, sf.content);
    if (fm.role == Role::kSrc) fm.functions = ExtractFunctions(fm.scan);
    a.files.push_back(std::move(fm));
  }
  report.files = a.files.size();

  CheckLayering(a, config);
  CheckLockOrder(a);
  CheckCancellation(a);
  CheckFaultRegistry(a, config);

  if (config.per_file_rules) {
    for (size_t i = 0; i < a.files.size(); ++i) {
      if (a.files[i].role != Role::kSrc) continue;
      std::vector<Diagnostic> per_file =
          LintSource(files[i].path, files[i].content);
      report.findings.insert(report.findings.end(),
                             std::make_move_iterator(per_file.begin()),
                             std::make_move_iterator(per_file.end()));
    }
  }

  std::sort(report.findings.begin(), report.findings.end(),
            [](const Diagnostic& x, const Diagnostic& y) {
              if (x.file != y.file) return x.file < y.file;
              if (x.line != y.line) return x.line < y.line;
              return x.rule < y.rule;
            });
  return report;
}

std::string Fingerprint(const Diagnostic& diag) {
  // Digit runs collapse to '#' so witness line numbers inside messages do
  // not churn the fingerprint when unrelated lines move.
  std::string key = diag.rule + "|" + diag.file + "|";
  bool in_digits = false;
  for (const char c : diag.message) {
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      if (!in_digits) key += '#';
      in_digits = true;
    } else {
      key += c;
      in_digits = false;
    }
  }
  uint64_t hash = 1469598103934665603ull;  // FNV-1a 64
  for (const char c : key) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  static const char* kHex = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<size_t>(i)] = kHex[hash & 0xf];
    hash >>= 4;
  }
  return out;
}

std::set<std::string> ParseBaseline(const std::string& content) {
  std::set<std::string> fingerprints;
  std::istringstream lines(content);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t first = line.find_first_not_of(" \t\r");
    if (first == std::string::npos || line[first] == '#') continue;
    size_t end = first;
    while (end < line.size() &&
           std::isspace(static_cast<unsigned char>(line[end])) == 0) {
      ++end;
    }
    fingerprints.insert(line.substr(first, end - first));
  }
  return fingerprints;
}

std::string RenderBaseline(const std::vector<Diagnostic>& findings) {
  std::string out =
      "# hetesim_analyze baseline — accepted pre-existing findings.\n"
      "# Regenerate with `hetesim_analyze --write-baseline=<this file>`;\n"
      "# policy: new code never adds entries here (DESIGN.md §15).\n";
  for (const Diagnostic& diag : findings) {
    out += Fingerprint(diag) + "  " + diag.rule + "  " + diag.file + ":" +
           std::to_string(diag.line) + "\n";
  }
  return out;
}

std::vector<Diagnostic> Unbaselined(const std::vector<Diagnostic>& findings,
                                    const std::set<std::string>& baseline) {
  std::vector<Diagnostic> fresh;
  for (const Diagnostic& diag : findings) {
    if (baseline.count(Fingerprint(diag)) == 0) fresh.push_back(diag);
  }
  return fresh;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* kHex = "0123456789abcdef";
          out += "\\u00";
          out += kHex[(c >> 4) & 0xf];
          out += kHex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string RenderJson(const AnalyzerReport& report,
                       const std::set<std::string>& baseline) {
  std::string out = "{\n  \"tool\": \"hetesim_analyze\",\n  \"files\": " +
                    std::to_string(report.files) + ",\n  \"findings\": [";
  size_t fresh = 0;
  for (size_t i = 0; i < report.findings.size(); ++i) {
    const Diagnostic& diag = report.findings[i];
    const std::string fp = Fingerprint(diag);
    const bool baselined = baseline.count(fp) != 0;
    if (!baselined) ++fresh;
    out += std::string(i == 0 ? "\n" : ",\n") + "    {\"file\": \"" +
           JsonEscape(diag.file) + "\", \"line\": " +
           std::to_string(diag.line) + ", \"rule\": \"" +
           JsonEscape(diag.rule) + "\", \"message\": \"" +
           JsonEscape(diag.message) + "\", \"fingerprint\": \"" + fp +
           "\", \"baselined\": " + (baselined ? "true" : "false") + "}";
  }
  out += "\n  ],\n  \"new_findings\": " + std::to_string(fresh) + "\n}\n";
  return out;
}

std::string RenderSarif(const AnalyzerReport& report,
                        const std::set<std::string>& baseline) {
  std::set<std::string> rules;
  for (const Diagnostic& diag : report.findings) rules.insert(diag.rule);
  std::string out =
      "{\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"$schema\": "
      "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
      "  \"runs\": [{\n"
      "    \"tool\": {\"driver\": {\"name\": \"hetesim_analyze\", "
      "\"rules\": [";
  size_t i = 0;
  for (const std::string& rule : rules) {
    out += std::string(i++ == 0 ? "" : ", ") + "{\"id\": \"" +
           JsonEscape(rule) + "\"}";
  }
  out += "]}},\n    \"results\": [";
  for (size_t j = 0; j < report.findings.size(); ++j) {
    const Diagnostic& diag = report.findings[j];
    const std::string fp = Fingerprint(diag);
    out += std::string(j == 0 ? "\n" : ",\n") +
           "      {\"ruleId\": \"" + JsonEscape(diag.rule) +
           "\", \"level\": \"error\", \"message\": {\"text\": \"" +
           JsonEscape(diag.message) +
           "\"}, \"locations\": [{\"physicalLocation\": "
           "{\"artifactLocation\": {\"uri\": \"" +
           JsonEscape(diag.file) + "\"}, \"region\": {\"startLine\": " +
           std::to_string(diag.line) +
           "}}}], \"partialFingerprints\": {\"hetesimAnalyze/v1\": \"" + fp +
           "\"}, \"baselineState\": \"" +
           (baseline.count(fp) != 0 ? "unchanged" : "new") + "\"}";
  }
  out += "\n    ]\n  }]\n}\n";
  return out;
}

}  // namespace hetesim::lint
