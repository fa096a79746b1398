// In-process tests for the hetesim_analyze whole-program analyzer
// (tools/lint/analyzer.h). Three layers:
//
//  1. Fixture-repo tests: each rule family has a mini-repository under
//     tests/lint_fixtures/analyze/<family>/ holding a positive case, a
//     same-line-suppressed case, and (where the family has one) an
//     allowlisted/registered case. We assert the *exact* (file, line, rule)
//     set so a family that stops firing — or fires on the wrong site —
//     fails loudly.
//  2. Baseline/fingerprint and renderer unit tests.
//  3. The dogfood test: analyzing the real repository with the checked-in
//     allowlist and fault registry must produce zero findings — the same
//     gate CI enforces with `hetesim_analyze --root=.`.

#include "analyzer.h"

#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

namespace hetesim::lint {
namespace {

/// (file, line, rule) triple — the identity of a finding the fixtures pin.
using Found = std::tuple<std::string, int, std::string>;
using Findings = std::vector<Found>;

struct LoadedRepo {
  std::vector<SourceFile> files;
  AnalyzerConfig config;
};

/// Loads a fixture mini-repository the way the CLI does: every source file
/// with its root-relative path, plus the tree's own allowlist and fault
/// registry when present. Per-file lint rules stay off so each family's
/// assertions see only that family's findings.
LoadedRepo LoadRepo(const std::string& root) {
  LoadedRepo repo;
  for (const std::string& path : CollectSourceFiles(root)) {
    SourceFile sf;
    sf.path = path.substr(root.size() + 1);
    EXPECT_TRUE(ReadFileToString(path, &sf.content)) << path;
    repo.files.push_back(std::move(sf));
  }
  ReadFileToString(root + "/" + repo.config.layering_allow_path,
                   &repo.config.layering_allow);
  repo.config.has_fault_registry = ReadFileToString(
      root + "/" + repo.config.fault_registry_path, &repo.config.fault_registry);
  repo.config.per_file_rules = false;
  return repo;
}

Findings AnalyzeFixture(const std::string& family) {
  const LoadedRepo repo = LoadRepo(std::string(HETESIM_LINT_FIXTURE_DIR) +
                                   "/analyze/" + family);
  Findings found;
  for (const Diagnostic& diag : AnalyzeRepo(repo.files, repo.config).findings) {
    found.emplace_back(diag.file, diag.line, diag.rule);
  }
  return found;
}

// --- layering family ------------------------------------------------------

TEST(AnalyzeLayering, UpwardSiblingAndCycleEdgesFireOthersStaySilent) {
  // graph.h's upward edge and svc.h's un-allowlisted sibling edge fire;
  // okay.h (suppressed), load.h (allowlisted), and every down-rank edge
  // stay silent. learn <-> service is reported as a module cycle despite
  // both edges being allowlisted, and also as the file-level include cycle
  // it happens to be; a.h <-> b.h is the pure include-cycle case.
  EXPECT_EQ(AnalyzeFixture("layering"),
            (Findings{{"src/common/b.h", 1, "include-cycle"},
                      {"src/hin/graph.h", 1, "layer-order"},
                      {"src/service/api.h", 1, "include-cycle"},
                      {"src/service/api.h", 1, "module-cycle"},
                      {"src/service/svc.h", 1, "layer-order"}}));
}

// --- orphan headers -------------------------------------------------------

TEST(AnalyzeOrphanHeader, TestOnlyAndUnincludedHeadersFire) {
  // used.h is included by a tools/ binary besides its own .cc and stays
  // silent; tested.h is included only by its own .cc and a test, dead.h by
  // nothing at all.
  EXPECT_EQ(AnalyzeFixture("orphan"),
            (Findings{{"src/core/dead.h", 1, "orphan-header"},
                      {"src/core/tested.h", 1, "orphan-header"}}));
}

// --- lock-order family ----------------------------------------------------

TEST(AnalyzeLockOrder, DirectAndCallPropagatedCyclesAndReentryFire) {
  // Pair: AB in one method, BA in another — a direct cycle. Prop: the
  // second edge exists only through the HelperTakesTwo call, proving
  // call-graph propagation. Reentrant::Re re-acquires a held lock; its
  // suppressed twin and the consistently ordered Fine class stay silent.
  EXPECT_EQ(AnalyzeFixture("lockorder"),
            (Findings{{"src/service/locks.cc", 20, "lock-order"},
                      {"src/service/locks.cc", 43, "lock-order"},
                      {"src/service/locks.cc", 62, "lock-reentry"}}));
}

// --- cancellation family --------------------------------------------------

TEST(AnalyzeCancelPoll, OnlyTheUnpolledNonTrivialLoopFires) {
  // Polling, delegating (forwards ctx), trivial (< 4 lines), suppressed,
  // and context-free loops all stay silent.
  EXPECT_EQ(AnalyzeFixture("cancelpoll"),
            (Findings{{"src/core/loops.cc", 10, "cancel-poll"}}));
}

// --- fault-registry family ------------------------------------------------

TEST(AnalyzeFaultRegistry, UnregisteredStaleAndUntestedFire) {
  // k.alloc is registered and referenced by the fixture test (clean);
  // k.rogue is in src/ but not the registry; k.stale is registered but
  // gone from src/; k.untested exists but no test references it; k.sneaky
  // carries a same-line suppression.
  EXPECT_EQ(AnalyzeFixture("faultreg"),
            (Findings{{"src/core/kernel.cc", 11, "fault-unregistered"},
                      {"tools/lint/fault_sites.txt", 3, "fault-stale"},
                      {"tools/lint/fault_sites.txt", 4, "fault-untested"}}));
}

// --- baseline and fingerprint ---------------------------------------------

TEST(AnalyzeBaseline, FingerprintIgnoresDigitDriftButNotRuleOrFile) {
  const Diagnostic at_12{"src/a.cc", 12, "lock-order",
                         "cycle (src/a.cc:12 in F)"};
  const Diagnostic at_97{"src/a.cc", 97, "lock-order",
                         "cycle (src/a.cc:97 in F)"};
  EXPECT_EQ(Fingerprint(at_12), Fingerprint(at_97));
  Diagnostic other_rule = at_12;
  other_rule.rule = "cancel-poll";
  EXPECT_NE(Fingerprint(at_12), Fingerprint(other_rule));
  Diagnostic other_file = at_12;
  other_file.file = "src/b.cc";
  EXPECT_NE(Fingerprint(at_12), Fingerprint(other_file));
}

TEST(AnalyzeBaseline, RoundTripSwallowsAllAndOnlyBaselinedFindings) {
  const std::vector<Diagnostic> findings = {
      {"src/a.cc", 3, "cancel-poll", "loop never polls"},
      {"src/b.cc", 7, "lock-order", "cycle A -> B -> A"}};
  const std::set<std::string> baseline = ParseBaseline(RenderBaseline(findings));
  EXPECT_TRUE(Unbaselined(findings, baseline).empty());

  std::vector<Diagnostic> grown = findings;
  grown.push_back({"src/c.cc", 1, "layer-order", "upward edge"});
  const std::vector<Diagnostic> fresh = Unbaselined(grown, baseline);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].file, "src/c.cc");
}

// --- renderers ------------------------------------------------------------

TEST(AnalyzeRender, JsonAndSarifCarryFindingsAndBaselineState) {
  const LoadedRepo repo = LoadRepo(std::string(HETESIM_LINT_FIXTURE_DIR) +
                                   "/analyze/faultreg");
  const AnalyzerReport report = AnalyzeRepo(repo.files, repo.config);
  ASSERT_EQ(report.findings.size(), 3u);

  const std::string json = RenderJson(report, /*baseline=*/{});
  EXPECT_NE(json.find("\"rule\": \"fault-stale\""), std::string::npos);
  EXPECT_NE(json.find("\"baselined\": false"), std::string::npos);
  EXPECT_NE(json.find("\"new_findings\": 3"), std::string::npos);

  const std::string sarif = RenderSarif(report, /*baseline=*/{});
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"ruleId\": \"fault-untested\""), std::string::npos);
  EXPECT_NE(sarif.find("\"baselineState\": \"new\""), std::string::npos);

  // With every finding baselined, both renderings flip their state.
  const std::set<std::string> all =
      ParseBaseline(RenderBaseline(report.findings));
  EXPECT_NE(RenderJson(report, all).find("\"new_findings\": 0"),
            std::string::npos);
  const std::string quiet_sarif = RenderSarif(report, all);
  EXPECT_EQ(quiet_sarif.find("\"baselineState\": \"new\""), std::string::npos);
  EXPECT_NE(quiet_sarif.find("\"baselineState\": \"unchanged\""),
            std::string::npos);
}

// --- dogfood --------------------------------------------------------------

// The gate CI enforces: the real repository analyzes clean with the
// checked-in allowlist and fault registry. Running it here means a layering
// break, a new lock-order cycle, an unpolled kernel loop, or a rogue fault
// point fails `ctest` locally, not just the static-analysis CI job.
TEST(AnalyzeDogfood, RepositoryIsClean) {
  const std::string root = HETESIM_SOURCE_DIR;
  std::vector<SourceFile> files;
  for (const std::string& path :
       CollectSourceFiles(root, {"lint_fixtures"})) {
    SourceFile sf;
    sf.path = path.substr(root.size() + 1);
    ASSERT_TRUE(ReadFileToString(path, &sf.content)) << path;
    files.push_back(std::move(sf));
  }
  ASSERT_GT(files.size(), 100u) << "source tree not found";

  AnalyzerConfig config;
  ASSERT_TRUE(ReadFileToString(root + "/" + config.layering_allow_path,
                               &config.layering_allow));
  config.has_fault_registry = ReadFileToString(
      root + "/" + config.fault_registry_path, &config.fault_registry);
  ASSERT_TRUE(config.has_fault_registry);

  const AnalyzerReport report = AnalyzeRepo(files, config);
  for (const Diagnostic& diag : report.findings) {
    ADD_FAILURE() << FormatDiagnostic(diag);
  }
}

}  // namespace
}  // namespace hetesim::lint
