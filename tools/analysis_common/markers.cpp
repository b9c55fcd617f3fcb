#include "markers.h"

#include <algorithm>
#include <regex>
#include <sstream>
#include <tuple>

namespace analysis {
namespace {

std::string Trim(const std::string& text) {
  const auto begin = text.find_first_not_of(" \t");
  if (begin == std::string::npos) return "";
  const auto end = text.find_last_not_of(" \t");
  return text.substr(begin, end - begin + 1);
}

std::vector<std::string> SplitIds(const std::string& ids) {
  std::vector<std::string> out;
  std::stringstream ss(ids);
  std::string id;
  while (std::getline(ss, id, ',')) {
    id = Trim(id);
    if (!id.empty()) out.push_back(id);
  }
  return out;
}

}  // namespace

std::vector<Marker> ParseMarkers(const std::string& tool,
                                 const std::vector<Comment>& comments) {
  std::vector<Marker> markers;
  // <tool>:<verb>            (verb-only, e.g. hot-path)
  // <tool>:<verb>(ids)       (exemption without reason — reported by caller)
  // <tool>:<verb>(ids): why  (full form)
  const std::regex re(tool +
                      R"(:([A-Za-z][A-Za-z0-9\-]*))"
                      R"((\(\s*([A-Za-z0-9_, \-]+?)\s*\))?)"
                      R"(\s*(:\s*(\S.*))?)");
  for (const Comment& comment : comments) {
    for (auto it = std::sregex_iterator(comment.text.begin(),
                                        comment.text.end(), re);
         it != std::sregex_iterator(); ++it) {
      Marker marker;
      marker.line = comment.line;
      marker.verb = (*it)[1].str();
      if ((*it)[2].matched) marker.ids = SplitIds((*it)[3].str());
      marker.has_reason = (*it)[4].matched;
      if (marker.has_reason) marker.reason = Trim((*it)[5].str());
      markers.push_back(std::move(marker));
    }
  }
  return markers;
}

std::vector<Allow> ParseAllows(
    const std::string& tool, const std::string& path,
    const std::vector<Comment>& comments, const std::vector<RuleInfo>& rules,
    std::vector<Finding>* out) {
  std::vector<Allow> allows;
  for (const Marker& marker : ParseMarkers(tool, comments)) {
    if (marker.verb != "allow" || marker.ids.empty()) continue;
    for (const std::string& id : marker.ids) {
      if (std::none_of(rules.begin(), rules.end(),
                       [&](const RuleInfo& rule) { return rule.id == id; })) {
        out->push_back({path, marker.line, "allow-directive",
                        "unknown rule id '" + id + "' in " + tool + ":allow"});
        continue;
      }
      if (!marker.has_reason) {
        out->push_back({path, marker.line, "allow-directive",
                        tool + ":allow(" + id +
                            ") needs a one-line justification after ':'"});
      }
      allows.push_back({marker.line, id, marker.has_reason, false});
    }
  }
  return allows;
}

void ApplyAllows(const std::string& tool, const std::string& path,
                 std::vector<Allow>& allows, std::vector<Finding> raw,
                 std::vector<Finding>* out) {
  for (Finding& finding : raw) {
    bool suppressed = false;
    for (Allow& allow : allows) {
      if (allow.rule == finding.rule) {
        allow.used = true;
        suppressed = true;
      }
    }
    if (!suppressed) out->push_back(std::move(finding));
  }
  for (const Allow& allow : allows) {
    if (!allow.used && allow.has_reason) {
      out->push_back({path, allow.line, "allow-directive",
                      "stale " + tool + ":allow(" + allow.rule +
                          "): it suppresses nothing; remove it"});
    }
  }
}

std::string FormatFindings(std::vector<Finding> findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              return std::tie(a.file, a.line, a.rule, a.message) <
                     std::tie(b.file, b.line, b.rule, b.message);
            });
  std::string out;
  for (const Finding& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ":" + f.rule + ": " +
           f.message + "\n";
  }
  return out;
}

}  // namespace analysis
