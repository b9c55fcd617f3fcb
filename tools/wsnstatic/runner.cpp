#include "runner.h"

#include <algorithm>

#include "source_tree.h"

namespace wsnstatic {
namespace {

std::string JoinIds(const std::vector<std::string>& ids) {
  std::string out;
  for (const std::string& id : ids) {
    if (!out.empty()) out += ", ";
    out += id;
  }
  return out;
}

/// One line per marker directive, with the justification — the reviewable
/// allow-list inventory. Covers wsnstatic markers and wsnlint's, so a PR
/// diff of the artifact shows every new escape in one place.
std::string BuildInventory(const Index& index) {
  std::vector<std::string> lines;
  for (const SourceFile& file : index.files) {
    for (const analysis::Marker& marker : file.markers) {
      lines.push_back(file.path + ":" + std::to_string(marker.line) +
                      ": wsnstatic:" + marker.verb + "(" +
                      JoinIds(marker.ids) + ")" +
                      (marker.has_reason ? ": " + marker.reason : ""));
    }
    for (const analysis::Marker& marker :
         analysis::ParseMarkers("wsnlint", file.scan.comments)) {
      lines.push_back(file.path + ":" + std::to_string(marker.line) +
                      ": wsnlint:" + marker.verb +
                      (marker.ids.empty() ? "" : "(" + JoinIds(marker.ids) +
                                                     ")") +
                      (marker.has_reason ? ": " + marker.reason : ""));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

}  // namespace

RunResult Check(std::vector<std::pair<std::string, std::string>> sources) {
  RunResult result;
  result.files_scanned = static_cast<int>(sources.size());
  const Index index = BuildIndex(std::move(sources));
  result.findings = CheckIndex(index);
  result.inventory = BuildInventory(index);
  return result;
}

RunResult Run(const Options& options) {
  return Check(analysis::ReadSourceTree("wsnstatic", options.root,
                                        options.paths, {"src"}));
}

}  // namespace wsnstatic
