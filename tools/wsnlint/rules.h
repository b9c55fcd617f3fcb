// wsnlint rule registry.
//
// Each rule enforces one repo-wide contract (see docs/STATIC_ANALYSIS.md for
// the catalog and the determinism rationale). Rules are token-level checks
// over the blanked "code view" produced by source_scanner — deliberately
// dependency-free (no libclang), so the linter builds and runs anywhere the
// simulator does and adds nothing to CI setup.
//
// Suppression: a comment anywhere in a file of the form
//   // wsnlint:allow(<rule-id>): one-line justification
// (angle brackets not included) disables that rule for the whole file. The justification is mandatory
// (an allow without one is itself a finding), and an allow that suppresses
// nothing is flagged as stale so escapes cannot rot in place.
#pragma once

#include <string>
#include <vector>

#include "markers.h"
#include "source_scanner.h"

namespace wsnlint {

// The scanner and the finding/marker plumbing live in tools/analysis_common
// (shared with wsnstatic); wsnlint re-exports the names it always had so the
// rule code and tests read unchanged.
using analysis::Comment;
using analysis::ScanResult;
using analysis::ScanSource;
using analysis::SplitLines;
using Finding = analysis::Finding;
using RuleInfo = analysis::RuleInfo;

/// Everything a rule needs to inspect one file.
struct FileContext {
  std::string path;       // repo-relative, '/'-separated
  std::string content;    // raw bytes
  ScanResult scan;        // blanked code view + comments
  std::vector<std::string> code_lines;  // SplitLines(scan.code)

  [[nodiscard]] bool InDir(const std::string& prefix) const;
  [[nodiscard]] bool IsHeader() const;
};

/// All registered rules, in reporting order.
[[nodiscard]] const std::vector<RuleInfo>& Rules();

/// Runs every rule over one file and returns the findings, with file-scope
/// `wsnlint:allow` directives applied. Directive problems (missing
/// justification, unknown rule id, stale allow) are reported as findings
/// under the `allow-directive` pseudo-rule.
[[nodiscard]] std::vector<Finding> CheckFile(const FileContext& ctx);

/// Convenience: builds the FileContext and runs CheckFile.
[[nodiscard]] std::vector<Finding> CheckSource(const std::string& path,
                                               const std::string& content);

/// Applies the mechanical fixes (rule header-hygiene: inserts a missing
/// `#pragma once` after the leading comment block). Returns the fixed
/// content; equal to the input when there is nothing to fix. Idempotent.
[[nodiscard]] std::string ApplyFixes(const std::string& path,
                                     const std::string& content);

// Findings format via analysis::FormatFindings (tools/analysis_common),
// shared with wsnstatic so both goldens compare the same byte format.

}  // namespace wsnlint
