// In-process tests for the per-file lint rules (tools/lint/linter.h). Two
// layers:
//
//  1. Fixture tests: each rule has a positive/negative fixture under
//     tests/lint_fixtures/; we assert the *exact* file:line:rule-id set so a
//     rule that stops firing (or fires on the wrong line) fails loudly.
//  2. The dogfood test: linting the real src/ tree must produce zero
//     findings — the same gate CI enforces through `hetesim_analyze`.

#include "linter.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace hetesim::lint {
namespace {

std::string FixturePath(const std::string& name) {
  return std::string(HETESIM_LINT_FIXTURE_DIR) + "/" + name;
}

std::string ReadFixture(const std::string& name) {
  std::ifstream in(FixturePath(name), std::ios::binary);
  EXPECT_TRUE(in.is_open()) << "missing fixture " << name;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// (line, rule-id) pairs — the identity of a diagnostic the fixtures pin.
std::vector<std::pair<int, std::string>> LintFixture(const std::string& name) {
  std::vector<std::pair<int, std::string>> found;
  for (const Diagnostic& diag : LintSource(FixturePath(name),
                                           ReadFixture(name))) {
    EXPECT_EQ(diag.file, FixturePath(name));
    found.emplace_back(diag.line, diag.rule);
  }
  return found;
}

using Findings = std::vector<std::pair<int, std::string>>;

TEST(LintFixtures, RawThreadFiresOutsidePoolAndHonorsSuppression) {
  EXPECT_EQ(LintFixture("raw_thread.cc"),
            (Findings{{4, "no-raw-thread"}, {16, "no-raw-thread"}}));
}

TEST(LintFixtures, RawThreadExemptInThreadPoolFiles) {
  EXPECT_EQ(LintFixture("thread_pool.cc"), Findings{});
}

TEST(LintFixtures, NakedNewFlagsNewAndMallocOnly) {
  EXPECT_EQ(LintFixture("naked_new.cc"),
            (Findings{{3, "no-naked-new"}, {5, "no-naked-new"}}));
}

TEST(LintFixtures, RawMutexFlagsEveryPrimitiveUse) {
  // Line 6 holds both a lock_guard and its std::mutex template argument.
  EXPECT_EQ(LintFixture("raw_mutex.cc"),
            (Findings{{3, "no-raw-mutex"},
                      {6, "no-raw-mutex"},
                      {6, "no-raw-mutex"}}));
}

TEST(LintFixtures, RawMutexExemptInMutexHeader) {
  EXPECT_EQ(LintFixture("mutex.h"), Findings{});
}

TEST(LintFixtures, FaultPointPairingInKernelFiles) {
  EXPECT_EQ(LintFixture("kernel/spgemm.cc"),
            (Findings{{28, "fault-point-alloc"}}));
}

TEST(LintFixtures, CheckInStatusFnSparesDcheckAndPlainFunctions) {
  EXPECT_EQ(LintFixture("check_status_fn.cc"),
            (Findings{{5, "no-check-in-status-fn"},
                      {10, "no-check-in-status-fn"}}));
}

TEST(LintFixtures, IncludeHygiene) {
  EXPECT_EQ(LintFixture("widget.cc"),
            (Findings{{2, "include-self-first"},
                      {3, "include-src-prefix"},
                      {4, "include-src-prefix"}}));
}

TEST(LintFixtures, CleanFileHasNoFindings) {
  EXPECT_EQ(LintFixture("clean.cc"), Findings{});
}

TEST(LintFormat, DiagnosticRendersFileLineRule) {
  const Diagnostic diag{"src/a.cc", 12, "no-naked-new", "naked 'new'"};
  EXPECT_EQ(FormatDiagnostic(diag), "src/a.cc:12: [no-naked-new] naked 'new'");
}

TEST(LintStrip, CommentsStringsAndCharsAreBlankedLinesPreserved) {
  const std::string source =
      "int a; // new std::thread\n"
      "const char* s = \"malloc(1)\";\n"
      "/* std::mutex\n   spans lines */ char c = 'n';\n";
  const std::string stripped = StripForScan(source);
  EXPECT_EQ(std::count(stripped.begin(), stripped.end(), '\n'),
            std::count(source.begin(), source.end(), '\n'));
  EXPECT_EQ(stripped.find("new"), std::string::npos);
  EXPECT_EQ(stripped.find("malloc"), std::string::npos);
  EXPECT_EQ(stripped.find("std::mutex"), std::string::npos);
  EXPECT_NE(stripped.find("int a;"), std::string::npos);
  EXPECT_NE(stripped.find("char c ="), std::string::npos);
}

TEST(LintStrip, RawStringsAndEscapesAreBlanked) {
  const std::string source =
      "const char* r = R\"(new \" quote)\";\n"
      "const char* e = \"esc\\\"new\";\n";
  const std::string stripped = StripForScan(source);
  EXPECT_EQ(stripped.find("new"), std::string::npos);
}

// The gate CI enforces: the real source tree lints clean. Running it here
// too means a conventions regression fails `ctest` locally, not just the
// static-analysis CI job.
TEST(LintDogfood, SourceTreeIsClean) {
  const std::vector<std::string> files =
      CollectSourceFiles(std::string(HETESIM_SOURCE_DIR) + "/src");
  ASSERT_GT(files.size(), 50u) << "source tree not found";
  std::vector<Diagnostic> diagnostics;
  for (const std::string& file : files) {
    ASSERT_TRUE(LintFile(file, &diagnostics)) << "unreadable " << file;
  }
  for (const Diagnostic& diag : diagnostics) {
    ADD_FAILURE() << FormatDiagnostic(diag);
  }
}

}  // namespace
}  // namespace hetesim::lint
