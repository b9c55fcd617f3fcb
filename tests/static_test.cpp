// Locks the wsnstatic semantic analyzer (tools/wsnstatic) four ways:
//
//  1. Golden: analyzing the tests/static_fixtures corpus (bad + clean
//     files per rule family, plus marker abuse) must reproduce
//     expected.golden byte-for-byte — rule ids, line numbers, messages and
//     sort order are all load-bearing for the CI gate.
//  2. Clean tree: the real working tree must analyze finding-free; every
//     sanctioned exception is a justified wsnstatic marker, itself checked
//     for staleness.
//  3. Mutation: the seeded mutations the CI drills replay (drop a serdes
//     field read, add an upward include, call a banned API two levels
//     below a hot root, add a shared static below a worker-thread root)
//     must each be detected — so CI goes red if one lands in the tree.
//  4. Determinism: re-running the analyzer over the same inputs yields
//     byte-identical output (the golden compare is meaningful).
#include "checks.h"
#include "runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace {

using analysis::FormatFindings;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

bool HasRule(const std::vector<analysis::Finding>& findings,
             const std::string& rule) {
  for (const analysis::Finding& finding : findings) {
    if (finding.rule == rule) return true;
  }
  return false;
}

TEST(Static, FixtureCorpusMatchesGolden) {
  wsnstatic::Options options;
  options.root = WSNLINK_STATIC_FIXTURES_DIR;
  const wsnstatic::RunResult result = wsnstatic::Run(options);
  const std::string expected =
      ReadFile(std::string(WSNLINK_STATIC_FIXTURES_DIR) + "/expected.golden");
  EXPECT_EQ(FormatFindings(result.findings), expected);
}

TEST(Static, RepoAnalyzesClean) {
  // The whole simulator tree must stay finding-free; every sanctioned
  // exception is a justified wsnstatic marker, which suppresses its
  // finding (and is itself checked for staleness).
  wsnstatic::Options options;
  options.root = WSNLINK_SOURCE_DIR;
  const wsnstatic::RunResult result = wsnstatic::Run(options);
  EXPECT_EQ(FormatFindings(result.findings), "");
  EXPECT_GT(result.files_scanned, 100);  // really scanned the tree
}

TEST(Static, RerunIsByteIdentical) {
  wsnstatic::Options options;
  options.root = WSNLINK_STATIC_FIXTURES_DIR;
  const wsnstatic::RunResult first = wsnstatic::Run(options);
  const wsnstatic::RunResult second = wsnstatic::Run(options);
  EXPECT_EQ(FormatFindings(first.findings), FormatFindings(second.findings));
  EXPECT_EQ(first.inventory, second.inventory);
}

TEST(Static, InventoryListsJustifiedMarkers) {
  wsnstatic::Options options;
  options.root = WSNLINK_SOURCE_DIR;
  const wsnstatic::RunResult result = wsnstatic::Run(options);
  // The live tree's sanctioned escapes must all surface in the artifact.
  EXPECT_NE(result.inventory.find("allow(lp-isolation)"), std::string::npos);
  EXPECT_NE(result.inventory.find("transient("), std::string::npos);
  EXPECT_NE(result.inventory.find("serdes("), std::string::npos);
}

// --- Mutation drills (in-process twins of the CI sed drills) -------------

TEST(Static, MutationDroppedSerdesReadIsDetected) {
  // The checkpoint.cpp drill in CI: a field the writer emits but the
  // reader no longer parses.
  const std::string source = R"(
struct Meta {
  long seed = 0;
  long stride = 0;
};
// wsnstatic:serdes(Meta, WriteMeta, ReadMeta): persistence contract
std::string WriteMeta(const Meta& meta) {
  return std::to_string(meta.seed) + " " + std::to_string(meta.stride);
}
Meta ReadMeta(const std::string& body) {
  Meta meta;
  meta.seed = static_cast<long>(body.size());
  return meta;
}
)";
  const wsnstatic::RunResult result =
      wsnstatic::Check({{"src/experiment/store.cpp", source}});
  EXPECT_TRUE(HasRule(result.findings, "serdes-complete"));
}

TEST(Static, MutationUpwardIncludeIsDetected) {
  const std::string source = "#include \"experiment/sweep.h\"\n";
  const wsnstatic::RunResult result =
      wsnstatic::Check({{"src/channel/medium.cpp", source}});
  EXPECT_TRUE(HasRule(result.findings, "layer-dag"));
}

TEST(Static, MutationAllocTwoLevelsBelowHotRootIsDetected) {
  // root (hot) -> Middle() -> Leaf() -> malloc: the violation is two
  // translation units away from the wsnlint:hot-path marker.
  const std::string root = R"(
// wsnlint:hot-path
int Middle(int);
int Run(int n) { return Middle(n); }
)";
  const std::string middle = R"(
int Leaf(int);
int Middle(int n) { return Leaf(n); }
)";
  const std::string leaf = R"(
#include <cstdlib>
int Leaf(int n) { return static_cast<char*>(std::malloc(n))[0]; }
)";
  const wsnstatic::RunResult result =
      wsnstatic::Check({{"src/experiment/root.cpp", root},
                        {"src/util/middle.cpp", middle},
                        {"src/util/leaf.cpp", leaf}});
  EXPECT_TRUE(HasRule(result.findings, "hot-path-transitive"));
}

TEST(Static, MutationSharedStaticBelowLpRootIsDetected) {
  const std::string root = "#include \"util/shared.h\"\n";
  const std::string header = "int Bump();\n";
  const std::string impl = R"(
#include "util/shared.h"
int Bump() {
  static int hits = 0;
  return ++hits;
}
)";
  const wsnstatic::RunResult result =
      wsnstatic::Check({{"src/util/thread_pool.cpp", root},
                        {"src/util/shared.h", header},
                        {"src/util/shared.cpp", impl}});
  EXPECT_TRUE(HasRule(result.findings, "lp-isolation"));
}

// --- Scanner regressions -------------------------------------------------

TEST(Static, PrefixedRawStringsAreNotCode) {
  // u8R/uR/UR/LR prefixed raw strings hid banned tokens from earlier
  // scanners that only recognised the bare R prefix. serve/ files are
  // lp-isolation roots, so a misread would surface as a finding there.
  const std::string source = R"outer(
const char* a = u8R"(
static int fake = 0;
)";
const wchar_t* b = LR"(
thread_local int spook = 1;
)";
)outer";
  const wsnstatic::RunResult result =
      wsnstatic::Check({{"src/serve/text.cpp", source}});
  EXPECT_EQ(FormatFindings(result.findings), "");
}

TEST(Static, StaleTransientIsDetected) {
  // A transient marker on a field that round-trips is itself a finding —
  // escapes cannot rot in place once the field is properly persisted.
  const std::string source = R"(
struct Meta {
  // wsnstatic:transient(ticks): pretend this was once unsaved
  int ticks = 0;
};
// wsnstatic:serdes(Meta, WriteMeta, ReadMeta): persistence contract
std::string WriteMeta(const Meta& meta) { return std::to_string(meta.ticks); }
Meta ReadMeta(const std::string& body) {
  Meta meta;
  meta.ticks = static_cast<int>(body.size());
  return meta;
}
)";
  const wsnstatic::RunResult result =
      wsnstatic::Check({{"src/experiment/store.cpp", source}});
  EXPECT_TRUE(HasRule(result.findings, "marker-directive"));
  EXPECT_NE(FormatFindings(result.findings)
                .find("stale wsnstatic:transient(ticks)"),
            std::string::npos);
}

TEST(Static, ListRulesCoversEveryFamily) {
  std::vector<std::string> ids;
  for (const analysis::RuleInfo& rule : wsnstatic::Rules()) {
    ids.push_back(rule.id);
  }
  for (const char* expected : {"serdes-complete", "hot-path-transitive",
                               "lp-isolation", "layer-dag"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), expected), ids.end())
        << "missing rule " << expected;
  }
  EXPECT_EQ(ids.size(), 4u);
}

}  // namespace
