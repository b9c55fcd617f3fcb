// wsnstatic — cross-TU semantic analyzer (docs/STATIC_ANALYSIS.md).
//
// Usage:
//   wsnstatic [--root DIR] [--list-rules] [--inventory FILE] [PATH...]
//
// PATHs (files or directories, relative to --root) default to src — the
// analyzer is cross-translation-unit, so it wants the whole simulator tree
// in one invocation. Exit status is 0 when clean, 1 when there are
// findings, 2 on usage or I/O errors. Findings print as
// `file:line:rule-id: message`, one per line, sorted — the same byte
// format tests/static_test.cpp locks with a golden. `--inventory FILE`
// additionally writes the marker/allow-list inventory (with reasons) that
// CI publishes as a build artifact; use `-` for stdout.
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "runner.h"

namespace {

void PrintUsage() {
  std::fprintf(stderr,
               "usage: wsnstatic [--root DIR] [--list-rules] "
               "[--inventory FILE] [PATH...]\n");
}

}  // namespace

int main(int argc, char** argv) {
  wsnstatic::Options options;
  bool list_rules = false;
  std::string inventory_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-rules") {
      list_rules = true;
    } else if (arg == "--root") {
      if (i + 1 >= argc) {
        PrintUsage();
        return 2;
      }
      options.root = argv[++i];
    } else if (arg == "--inventory") {
      if (i + 1 >= argc) {
        PrintUsage();
        return 2;
      }
      inventory_path = argv[++i];
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "wsnstatic: unknown flag %s\n", arg.c_str());
      PrintUsage();
      return 2;
    } else {
      options.paths.push_back(arg);
    }
  }

  if (list_rules) {
    for (const analysis::RuleInfo& rule : wsnstatic::Rules()) {
      std::printf("%-20s %s\n", rule.id.c_str(), rule.summary.c_str());
    }
    return 0;
  }

  try {
    const wsnstatic::RunResult result = wsnstatic::Run(options);
    const std::string report = analysis::FormatFindings(result.findings);
    std::fputs(report.c_str(), stdout);
    if (!inventory_path.empty()) {
      if (inventory_path == "-") {
        std::fputs(result.inventory.c_str(), stdout);
      } else {
        std::ofstream out(inventory_path, std::ios::binary | std::ios::trunc);
        out << result.inventory;
        if (!out) {
          std::fprintf(stderr, "wsnstatic: cannot write %s\n",
                       inventory_path.c_str());
          return 2;
        }
      }
    }
    std::fprintf(stderr, "wsnstatic: %d finding(s) in %d file(s)\n",
                 static_cast<int>(result.findings.size()),
                 result.files_scanned);
    return result.findings.empty() ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s\n", error.what());
    return 2;
  }
}
