#ifndef HETESIM_TOOLS_LINT_ANALYZER_H_
#define HETESIM_TOOLS_LINT_ANALYZER_H_

#include <set>
#include <string>
#include <vector>

#include "linter.h"
#include "source_scan.h"

/// \file
/// \brief `hetesim_analyze`: the whole-program static analyzer.
///
/// Where `hetesim_lint` (linter.h) checks one translation unit at a time,
/// this analyzer builds a cross-file model of the repository — the include
/// graph, every function definition with its lock acquisitions and loops,
/// every fault-point literal — and enforces the invariants that only exist
/// *between* files (DESIGN.md §15):
///
///   layer-order     #include edges must respect the module layering DAG
///                   common < matrix < hin < core < {workload, service,
///                   learn, datagen, baselines} < tools/bench/tests.
///                   Same-layer edges need an entry in the checked-in
///                   allowlist (tools/lint/layering_allow.txt).
///   module-cycle    the module-level include graph must stay acyclic even
///                   across allowlisted edges.
///   include-cycle   no file-level include cycles.
///   orphan-header   a src/ header included only by its own .cc and by
///                   files under tests/ (or by nothing) is dead code.
///   lock-order      the global lock-order graph (MutexLock nesting per
///                   function, propagated across calls) must be acyclic; a
///                   cycle is a potential deadlock and is reported with the
///                   full cycle path and witness sites.
///   lock-reentry    the same lock acquired again while already held (the
///                   Mutex wrapper is non-reentrant: guaranteed deadlock).
///   cancel-poll     a function taking QueryContext/CancelToken whose body
///                   loops must poll (CheckAlive/Expired/ShouldPoll/… or
///                   pass the context onward) inside each non-trivial
///                   outermost loop, so new kernels cannot silently ignore
///                   deadlines.
///   fault-unregistered  every HETESIM_FAULT_POINT("site") literal in src/
///                   must be listed in tools/lint/fault_sites.txt.
///   fault-stale     every registry entry must still exist in src/.
///   fault-untested  every registry entry must be referenced by at least
///                   one test under tests/.
///
/// Per-file `hetesim_lint` rules (linter.h) also run over src/ files, so
/// one `hetesim_analyze` invocation is the whole lint gate.
///
/// Point suppressions reuse the same-line `// hetesim-lint: allow(rule-id)`
/// marker; pre-existing findings can be carried in a baseline file of
/// fingerprints (see ParseBaseline / --write-baseline). The suppression and
/// baseline policy lives in DESIGN.md §15.
namespace hetesim::lint {

/// One input file. `path` is repository-relative with '/' separators
/// (e.g. "src/core/topk.cc") — module and role assignment key off it.
struct SourceFile {
  std::string path;
  std::string content;
};

struct AnalyzerConfig {
  /// Content of the layering allowlist (lines of `from -> to` module
  /// edges; '#' comments). Empty = no sanctioned same-layer edges.
  std::string layering_allow;
  std::string layering_allow_path = "tools/lint/layering_allow.txt";

  /// Content of the fault-site registry (one site name per line; '#'
  /// comments). The three fault-* rules run only when
  /// `has_fault_registry` is true; diagnostics against the registry
  /// itself anchor at `fault_registry_path`.
  std::string fault_registry;
  std::string fault_registry_path = "tools/lint/fault_sites.txt";
  bool has_fault_registry = false;

  /// Also run the per-file hetesim_lint rules over src-role files.
  bool per_file_rules = true;
};

struct AnalyzerReport {
  std::vector<Diagnostic> findings;  ///< sorted by (file, line, rule)
  size_t files = 0;                  ///< files modeled
};

/// Builds the whole-program model and runs every rule family. Same-line
/// `allow(...)` suppressions are already applied; baseline filtering is the
/// caller's (use Unbaselined).
AnalyzerReport AnalyzeRepo(const std::vector<SourceFile>& files,
                           const AnalyzerConfig& config);

/// Stable identity of a finding for the baseline file: a 64-bit FNV-1a hash
/// (hex) over rule, file, and the message with digit runs collapsed — so
/// line drift from unrelated edits does not invalidate a baseline entry.
std::string Fingerprint(const Diagnostic& diag);

/// Parses a baseline file: the first whitespace-separated token of every
/// non-comment line is a fingerprint.
std::set<std::string> ParseBaseline(const std::string& content);

/// Renders `findings` as a baseline file (fingerprint + human context).
std::string RenderBaseline(const std::vector<Diagnostic>& findings);

/// The findings whose fingerprints are not in `baseline`.
std::vector<Diagnostic> Unbaselined(const std::vector<Diagnostic>& findings,
                                    const std::set<std::string>& baseline);

/// Machine-readable renderings of a report. Baselined findings are included
/// with `"baselined": true` (JSON) / `"baselineState": "unchanged"` (SARIF);
/// new findings carry `"new"` so CI annotation can gate on them.
std::string RenderJson(const AnalyzerReport& report,
                       const std::set<std::string>& baseline);
std::string RenderSarif(const AnalyzerReport& report,
                        const std::set<std::string>& baseline);

}  // namespace hetesim::lint

#endif  // HETESIM_TOOLS_LINT_ANALYZER_H_
