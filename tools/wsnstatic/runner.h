// Filesystem driver for wsnstatic: reads the requested files through the
// shared walker (source_tree.h), builds the cross-TU Index, and runs the
// rule families. Kept separate from checks.cpp so tests can analyze
// in-memory file sets without touching disk and so the CLI stays a thin
// shell.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "checks.h"
#include "index.h"

namespace wsnstatic {

struct Options {
  // Directory all reported paths are made relative to (and that `paths`
  // are resolved against). Defaults to the current working directory.
  std::string root = ".";
  // Files or directories to analyze, relative to `root`. Directories are
  // walked recursively for .h/.cpp/.cc files. Empty means the default
  // scan set: src (cross-TU analysis needs the whole tree at once, so the
  // default is the full simulator source).
  std::vector<std::string> paths;
};

struct RunResult {
  std::vector<analysis::Finding> findings;
  int files_scanned = 0;
  // Sorted marker inventory (wsnstatic:* plus wsnlint:allow/hot-path),
  // one per line with reasons — CI publishes this as the review artifact.
  std::string inventory;
};

/// Analyzes an in-memory file set (exposed for tests/mutation drills).
[[nodiscard]] RunResult Check(
    std::vector<std::pair<std::string, std::string>> sources);

/// Analyzes every file the shared walker (analysis::ReadSourceTree)
/// reads. Throws std::runtime_error when a requested path does not exist.
[[nodiscard]] RunResult Run(const Options& options);

}  // namespace wsnstatic
