// Locks the wsnlint rule engine (tools/wsnlint) three ways:
//
//  1. Golden: linting the tests/lint_fixtures corpus (one bad + one clean
//     file per rule, plus allow-directive abuse) must reproduce
//     expected.golden byte-for-byte — rule ids, line numbers, messages and
//     sort order are all load-bearing for the CI gate.
//  2. Fix: --fix inserts a missing #pragma once after the leading comment
//     block, resolves the finding, and is idempotent.
//  3. Mutation: the seeded mutations from the acceptance criteria
//     (std::rand() in src/sim/, an unordered_map loop in a CSV writer)
//     must be detected, and the real repo must lint clean — so CI fails
//     if either mutation lands in the tree.
#include "rules.h"
#include "runner.h"
#include "source_tree.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

namespace {

using wsnlint::ApplyFixes;
using wsnlint::CheckSource;
using wsnlint::Finding;
using analysis::FormatFindings;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot read " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool HasRule(const std::vector<Finding>& findings, const std::string& rule) {
  for (const Finding& f : findings) {
    if (f.rule == rule) return true;
  }
  return false;
}

TEST(Lint, FixtureCorpusMatchesGolden) {
  wsnlint::Options options;
  options.root = WSNLINK_LINT_FIXTURES_DIR;
  options.paths = {"src", "bench"};
  const wsnlint::RunResult result = wsnlint::Run(options);
  const std::string expected =
      ReadFile(std::string(WSNLINK_LINT_FIXTURES_DIR) + "/expected.golden");
  EXPECT_EQ(FormatFindings(result.findings), expected);
}

TEST(Lint, RepoLintsClean) {
  // The whole working tree must stay finding-free; every sanctioned
  // exception is a wsnlint:allow with a justification, which suppresses
  // its finding (and is itself checked for staleness).
  wsnlint::Options options;
  options.root = WSNLINK_SOURCE_DIR;
  const wsnlint::RunResult result = wsnlint::Run(options);
  EXPECT_EQ(FormatFindings(result.findings), "");
  EXPECT_GT(result.files_scanned, 200);  // really scanned the tree
}

TEST(Lint, FixInsertsPragmaOnceAfterCommentBlock) {
  const std::string bad_header =
      ReadFile(std::string(WSNLINK_LINT_FIXTURES_DIR) + "/src/bad_header.h");
  ASSERT_TRUE(HasRule(CheckSource("src/bad_header.h", bad_header),
                      "header-hygiene"));

  const std::string fixed = ApplyFixes("src/bad_header.h", bad_header);
  EXPECT_NE(fixed, bad_header);
  EXPECT_NE(fixed.find("#pragma once"), std::string::npos);
  // Inserted after the leading comment block, not at byte zero.
  EXPECT_EQ(fixed.rfind("// Fixture", 0), 0u);
  // The pragma finding is resolved (the using-namespace one remains).
  bool pragma_finding = false;
  for (const Finding& f : CheckSource("src/bad_header.h", fixed)) {
    if (f.message.find("#pragma once") != std::string::npos) {
      pragma_finding = true;
    }
  }
  EXPECT_FALSE(pragma_finding);
}

TEST(Lint, FixIsIdempotent) {
  const std::string bad_header =
      ReadFile(std::string(WSNLINK_LINT_FIXTURES_DIR) + "/src/bad_header.h");
  const std::string once = ApplyFixes("src/bad_header.h", bad_header);
  const std::string twice = ApplyFixes("src/bad_header.h", once);
  EXPECT_EQ(once, twice);

  // Already-clean files are returned byte-identical.
  const std::string clean_header =
      ReadFile(std::string(WSNLINK_LINT_FIXTURES_DIR) + "/src/clean_header.h");
  EXPECT_EQ(ApplyFixes("src/clean_header.h", clean_header), clean_header);
}

TEST(Lint, MutationStdRandInSimIsDetected) {
  const std::string mutated =
      "#include \"sim/simulator.h\"\n"
      "#include <cstdlib>\n"
      "int Jitter() { return std::rand() % 7; }\n";
  EXPECT_TRUE(HasRule(CheckSource("src/sim/simulator.cpp", mutated),
                      "no-wallclock"));
}

TEST(Lint, MutationUnorderedLoopInCsvWriterIsDetected) {
  const std::string mutated =
      "#include \"util/csv.h\"\n"
      "#include <unordered_map>\n"
      "void Dump(wsnlink::util::CsvWriter& w,\n"
      "          const std::unordered_map<int, int>& m) {\n"
      "  for (const auto& [k, v] : m) w.WriteRow({});\n"
      "}\n";
  EXPECT_TRUE(HasRule(CheckSource("src/util/csv.cpp", mutated),
                      "no-unordered-output"));
}

TEST(Lint, CommentsAndStringsAreNotCode) {
  const std::string content =
      "// std::rand() in a comment\n"
      "/* steady_clock in a block comment */\n"
      "const char* s = \"std::rand()\";\n"
      "const char* r = R\"(random_device)\";\n";
  EXPECT_TRUE(CheckSource("src/doc.cpp", content).empty());
}

TEST(Lint, DigitSeparatorIsNotACharLiteral) {
  // If 1'000'000 opened a char literal the scanner would blank the rest of
  // the line and the std::rand() on the next one.
  const std::string content =
      "long big = 1'000'000;\n"
      "int bad = std::rand();\n";
  EXPECT_TRUE(HasRule(CheckSource("src/sep.cpp", content), "no-wallclock"));
  EXPECT_FALSE(HasRule(CheckSource("src/sep.cpp", content), "no-float-eq"));
}

TEST(Lint, RuleScopingFollowsDirectories) {
  const std::string clock_user =
      "#include <chrono>\n"
      "double Now();\n";
  // Wall-clock reads are a src/-only contract: bench timing harnesses are
  // allowed to measure real time.
  EXPECT_TRUE(HasRule(CheckSource("src/phy/timing.cpp", clock_user),
                      "no-wallclock"));
  EXPECT_FALSE(HasRule(CheckSource("bench/perf_sweep.cpp", clock_user),
                       "no-wallclock"));

  // Raw parsing is legal only inside src/util/ (the validated parsers
  // themselves are implemented with it).
  const std::string parser = "int n = std::stoi(text);\n";
  EXPECT_FALSE(HasRule(CheckSource("src/util/args.cpp", parser),
                       "no-raw-parse"));
  EXPECT_TRUE(HasRule(CheckSource("src/experiment/sweep.cpp", parser),
                      "no-raw-parse"));
}

TEST(Lint, AllowDirectiveSuppressesAndIsChecked) {
  const std::string allowed =
      "// wsnlint:allow(no-naked-new): fixture-scale arena, freed in Reset\n"
      "int* Make() { return new int[4]; }\n";
  EXPECT_TRUE(CheckSource("src/arena.cpp", allowed).empty());

  const std::string unjustified =
      "// wsnlint:allow(no-naked-new)\n"
      "int* Make() { return new int[4]; }\n";
  EXPECT_TRUE(HasRule(CheckSource("src/arena.cpp", unjustified),
                      "allow-directive"));

  const std::string stale =
      "// wsnlint:allow(no-naked-new): nothing here actually allocates\n"
      "int Make() { return 4; }\n";
  EXPECT_TRUE(HasRule(CheckSource("src/arena.cpp", stale),
                      "allow-directive"));
}

TEST(Lint, FixtureDirsAreExcludedFromTreeScans) {
  EXPECT_TRUE(analysis::IsExcluded("tests/lint_fixtures/src/bad_header.h"));
  EXPECT_TRUE(analysis::IsExcluded("tests/golden/contention_n1.csv"));
  EXPECT_TRUE(analysis::IsExcluded("build/foo.cpp"));
  EXPECT_FALSE(analysis::IsExcluded("tests/lint_test.cpp"));
  EXPECT_FALSE(analysis::IsExcluded("src/sim/simulator.cpp"));
}

}  // namespace
