// Filesystem driver for wsnlint: reads the requested files through the
// shared walker (source_tree.h), lints each one, and aggregates findings.
// Kept separate from rules.cpp so tests can lint in-memory snippets without
// touching disk and so the CLI stays a thin shell.
#pragma once

#include <string>
#include <vector>

#include "rules.h"

namespace wsnlint {

struct Options {
  // Directory all reported paths are made relative to (and that `paths` are
  // resolved against). Defaults to the current working directory.
  std::string root = ".";
  // Files or directories to lint, relative to `root`. Directories are
  // walked recursively for .h/.cpp/.cc files. Empty means the default scan
  // set: src, bench, examples, tests, tools.
  std::vector<std::string> paths;
  // Apply mechanical fixes in place (currently: missing #pragma once).
  bool fix = false;
};

struct RunResult {
  std::vector<Finding> findings;
  int files_scanned = 0;
  int files_fixed = 0;
};

/// Lints (and with `options.fix` rewrites) every file the shared walker
/// (analysis::ReadSourceTree) reads. Throws std::runtime_error when a
/// requested path does not exist.
[[nodiscard]] RunResult Run(const Options& options);

}  // namespace wsnlint
