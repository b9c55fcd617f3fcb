// Marker-directive grammar shared by wsnlint and wsnstatic.
//
// A marker is a comment of the form
//   <tool>:<verb>(<id>[, <id>...]): one-line justification
// with <tool> one of wsnlint/wsnstatic, e.g. an allow(no-wallclock) with a
// one-line reason, or a transient(cache_) naming a member that is
// deliberately left out of a serialized image. (Spelled indirectly here so
// the linters do not read this paragraph as a live directive.)
// The justification after ':' is mandatory for every verb that grants an
// exemption; a marker without one is itself a finding, and an allow that
// suppresses nothing is flagged as stale so escapes cannot rot in place.
//
// This library owns parsing and the allow/stale bookkeeping so both tools
// report identical diagnostics for malformed or stale directives.
#pragma once

#include <string>
#include <vector>

#include "source_scanner.h"

namespace analysis {

/// One analysis finding. `file` is the path as given to the tool (normally
/// repo-relative), `line` is 1-based.
struct Finding {
  std::string file;
  int line = 0;
  std::string rule;  // rule id, e.g. "no-wallclock"
  std::string message;
};

/// Static description of one rule, as `--list-rules` prints it.
struct RuleInfo {
  std::string id;
  std::string summary;
};

/// One parsed marker directive. `ids` holds the comma-separated arguments
/// with surrounding spaces trimmed; empty arguments are dropped.
struct Marker {
  int line = 0;       // 1-based line of the enclosing comment
  std::string verb;   // e.g. "allow", "transient", "hot-path"
  std::vector<std::string> ids;
  bool has_reason = false;
  std::string reason;  // empty when has_reason is false
};

/// Extracts every `<tool>:<verb>(...)` marker from `comments`. Verb-only
/// markers without an argument list (e.g. `wsnlint:hot-path`) are returned
/// with empty `ids` and no reason requirement implied — callers decide which
/// verbs demand justification.
[[nodiscard]] std::vector<Marker> ParseMarkers(
    const std::string& tool, const std::vector<Comment>& comments);

/// One file-scope allow entry being tracked for staleness.
struct Allow {
  int line = 0;
  std::string rule;
  bool has_reason = false;
  bool used = false;
};

/// Parses `<tool>:allow(rule[, rule...]): reason` directives out of
/// `comments`. Rule ids not in `rules` and missing justifications are
/// reported into `out` under the `allow-directive` pseudo-rule, with
/// messages byte-identical to historical wsnlint output.
[[nodiscard]] std::vector<Allow> ParseAllows(
    const std::string& tool, const std::string& path,
    const std::vector<Comment>& comments, const std::vector<RuleInfo>& rules,
    std::vector<Finding>* out);

/// Drops findings suppressed by a matching allow (marking it used), then
/// reports any justified-but-unused allow as stale. `raw` is consumed;
/// surviving findings are appended to `out`.
void ApplyAllows(const std::string& tool, const std::string& path,
                 std::vector<Allow>& allows, std::vector<Finding> raw,
                 std::vector<Finding>* out);

/// Formats findings one per line as `file:line:rule-id: message`, sorted by
/// (file, line, rule, message). Byte-stable: golden tests compare this.
[[nodiscard]] std::string FormatFindings(std::vector<Finding> findings);

}  // namespace analysis
