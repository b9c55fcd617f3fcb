// Source-tree walker shared by wsnlint and wsnstatic: which files a scan
// reads and in which order. Each tool passes its own name (for messages)
// and its default scan set; the walk, the extension filter, the sort and
// the exclusion list are one implementation.
#pragma once

#include <string>
#include <utility>
#include <vector>

namespace analysis {

/// True if `relative_path` is excluded from tree scans: the rule fixture
/// corpora (which contain violations on purpose), golden files, build
/// trees and version-control internals.
[[nodiscard]] bool IsExcluded(const std::string& relative_path);

/// Reads every .h/.cpp/.cc file under `paths` (files or directories
/// relative to `root`; empty means `default_paths`), sorted by path, each
/// once, excluded files skipped. Returns (path, raw bytes) pairs, each path
/// '/'-separated and relative to `root`. Throws std::runtime_error,
/// prefixed with `tool`, when a requested path does not exist or a file
/// cannot be read.
[[nodiscard]] std::vector<std::pair<std::string, std::string>> ReadSourceTree(
    const std::string& tool, const std::string& root,
    const std::vector<std::string>& paths,
    const std::vector<std::string>& default_paths);

}  // namespace analysis
