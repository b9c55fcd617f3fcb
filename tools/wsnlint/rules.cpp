#include "rules.h"

#include <cstddef>
#include <regex>
#include <utility>

namespace wsnlint {
namespace {

// --- rule scoping helpers ---------------------------------------------------

bool StartsWith(const std::string& text, const std::string& prefix) {
  return text.rfind(prefix, 0) == 0;
}

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Returns true when the whole-line code view matches `re`, reporting one
// finding per matching line (not per match: one message per line keeps the
// output readable and the golden stable).
void FlagLines(const FileContext& ctx, const std::regex& re,
               const std::string& rule, const std::string& message,
               std::vector<Finding>* out) {
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    if (std::regex_search(ctx.code_lines[i], re)) {
      out->push_back({ctx.path, static_cast<int>(i) + 1, rule, message});
    }
  }
}

// --- R1: no wall-clock or ambient entropy in src/ ---------------------------

void CheckWallclock(const FileContext& ctx, std::vector<Finding>* out) {
  if (!ctx.InDir("src/")) return;
  static const std::regex kForbidden(
      R"((\bstd::rand\b|\bsrand\s*\(|\brand\s*\(|\brandom_device\b)"
      R"(|\bsystem_clock\b|\bsteady_clock\b|\bhigh_resolution_clock\b)"
      R"(|\bgettimeofday\b|\btime\s*\(\s*(nullptr|NULL|0)\s*\))"
      R"(|\bclock\s*\(\s*\)|#\s*include\s*<(chrono|ctime|random)>))");
  FlagLines(ctx, kForbidden, "no-wallclock",
            "wall-clock/ambient entropy is forbidden in src/; draw from the "
            "seeded util::Rng lineage so runs replay bit-identically",
            out);
}

// --- R2: no unordered containers on output-writing paths --------------------

void CheckUnorderedOutput(const FileContext& ctx, std::vector<Finding>* out) {
  if (!ctx.InDir("src/")) return;
  static const std::regex kOutputSignal(
      R"((#\s*include\s*"util/csv\.h"|#\s*include\s*"experiment/checkpoint\.h")"
      R"(|#\s*include\s*"experiment/journal\.h")"
      R"(|#\s*include\s*"trace/export\.h"|\bCsvWriter\b|\bCheckpointWriter\b)"
      R"(|\bSerializeSummaryRow\b|\bExportCsv\b))");
  if (!std::regex_search(ctx.scan.code, kOutputSignal)) return;
  static const std::regex kUnordered(R"(\bunordered_(map|set)\b)");
  FlagLines(ctx, kUnordered, "no-unordered-output",
            "unordered container in a file that writes CSV/trace/checkpoint "
            "output; iteration order is unspecified and would make emitted "
            "bytes depend on hashing — use std::map/std::vector",
            out);
}

// --- R3: numeric parsing goes through src/util ------------------------------

void CheckRawParse(const FileContext& ctx, std::vector<Finding>* out) {
  if (ctx.InDir("src/util/")) return;
  static const std::regex kRawParse(
      R"(\b(atoi|atof|atol|atoll|strtol|strtoul|strtoll|strtoull|strtod)"
      R"(|strtof|strtold|sscanf|stoi|stol|stoll|stoul|stoull|stof|stod|stold))"
      R"(\s*\()");
  FlagLines(ctx, kRawParse, "no-raw-parse",
            "raw numeric parsing outside src/util/; use util::Args accessors "
            "or util::ParsePositiveInt/ParseDouble, which reject trailing "
            "garbage instead of silently truncating",
            out);
}

// --- R4: header hygiene -----------------------------------------------------

void CheckHeaderHygiene(const FileContext& ctx, std::vector<Finding>* out) {
  if (!ctx.IsHeader()) return;
  static const std::regex kDirective(R"(^\s*#)");
  static const std::regex kPragmaOnce(R"(^\s*#\s*pragma\s+once\b)");
  int first_directive_line = 0;  // 1-based; 0 = none found
  bool pragma_first = false;
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    if (std::regex_search(ctx.code_lines[i], kDirective)) {
      first_directive_line = static_cast<int>(i) + 1;
      pragma_first = std::regex_search(ctx.code_lines[i], kPragmaOnce);
      break;
    }
  }
  if (!pragma_first) {
    out->push_back({ctx.path, first_directive_line == 0 ? 1
                                                        : first_directive_line,
                    "header-hygiene",
                    "header must start with #pragma once (before any other "
                    "preprocessor directive); run wsnlint --fix"});
  }
  static const std::regex kUsingNamespace(R"(^\s*using\s+namespace\b)");
  FlagLines(ctx, kUsingNamespace, "header-hygiene",
            "using-namespace at file scope in a header leaks into every "
            "includer; qualify names or alias them",
            out);
}

// --- R5: no floating-point ==/!= --------------------------------------------

void CheckFloatEq(const FileContext& ctx, std::vector<Finding>* out) {
  // Token-level approximation: an ==/!= with a float literal on either side.
  // Comparing two double-typed variables is invisible to a scanner without
  // type info; the literal form is the one that actually shows up in
  // thresholds and golden predicates, and the one mutations introduce.
  static const std::regex kFloatCmp(
      R"((==|!=)\s*[+-]?(\d+\.\d*|\.\d+|\d+[eE][+-]?\d+))"
      R"(|(\d+\.\d*|\.\d+|\d+[eE][+-]?\d+)[fFlL]?\s*(==|!=))");
  FlagLines(ctx, kFloatCmp, "no-float-eq",
            "floating-point ==/!= against a literal; rounding makes exact "
            "equality fragile — compare with an explicit tolerance or "
            "restructure to integers",
            out);
}

// --- R6: no naked new/delete in src/ ----------------------------------------

void CheckNakedNew(const FileContext& ctx, std::vector<Finding>* out) {
  if (!ctx.InDir("src/")) return;
  static const std::regex kPreprocessor(R"(^\s*#)");
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string& line = ctx.code_lines[i];
    if (std::regex_search(line, kPreprocessor)) continue;  // #include <new>
    static const std::regex kNew(R"(\bnew\b)");
    static const std::regex kDelete(R"(\bdelete\b)");
    bool flagged = false;
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kNew);
         it != std::sregex_iterator(); ++it) {
      const std::size_t pos = static_cast<std::size_t>(it->position());
      const std::string before = line.substr(0, pos);
      // `operator new` overloads and placement new (`new (addr) T`, also
      // `::new (...)`) manage storage explicitly and are not ownership bugs.
      static const std::regex kOperatorPrefix(R"(operator\s*$)");
      if (std::regex_search(before, kOperatorPrefix)) continue;
      std::size_t after = pos + 3;
      while (after < line.size() && line[after] == ' ') ++after;
      if (after < line.size() && line[after] == '(') continue;
      flagged = true;
    }
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kDelete);
         it != std::sregex_iterator(); ++it) {
      const std::size_t pos = static_cast<std::size_t>(it->position());
      const std::string before = line.substr(0, pos);
      // `= delete`d functions and `operator delete` overloads are fine.
      static const std::regex kDeletedFnPrefix(R"((=\s*|operator\s*)$)");
      if (std::regex_search(before, kDeletedFnPrefix)) continue;
      flagged = true;
    }
    if (flagged) {
      out->push_back({ctx.path, static_cast<int>(i) + 1, "no-naked-new",
                      "naked new/delete in src/; own memory with "
                      "std::unique_ptr/containers so no path can leak"});
    }
  }
}

// --- R7: no heap allocation in files marked hot-path ------------------------

void CheckHotAlloc(const FileContext& ctx, std::vector<Finding>* out) {
  // Opt-in: a comment containing the `wsnlint:hot-path` marker declares the
  // file part of the per-config inner loop, where the zero-alloc sweep
  // invariant holds (every perf_sweep run measures it and exits 1 above 2
  // allocations per config; this rule makes it visible at review time).
  // In marked files, tokens that unconditionally hit the heap allocator
  // are findings. Placement new (`new (addr) T`) constructs into
  // caller-owned storage (sim::EventFn's inline buffer) and stays exempt,
  // as do preprocessor lines.
  bool marked = false;
  for (const Comment& comment : ctx.scan.comments) {
    if (comment.text.find("wsnlint:hot-path") != std::string::npos) {
      marked = true;
      break;
    }
  }
  if (!marked) return;
  static const std::regex kPreprocessor(R"(^\s*#)");
  static const std::regex kHeapCall(
      R"(\bmake_(unique|shared)\s*<|\b(malloc|calloc|realloc|strdup)\s*\()");
  static const std::regex kNew(R"(\bnew\b)");
  for (std::size_t i = 0; i < ctx.code_lines.size(); ++i) {
    const std::string& line = ctx.code_lines[i];
    if (std::regex_search(line, kPreprocessor)) continue;
    bool flagged = std::regex_search(line, kHeapCall);
    for (auto it = std::sregex_iterator(line.begin(), line.end(), kNew);
         !flagged && it != std::sregex_iterator(); ++it) {
      const std::size_t pos = static_cast<std::size_t>(it->position());
      static const std::regex kOperatorPrefix(R"(operator\s*$)");
      if (std::regex_search(line.substr(0, pos), kOperatorPrefix)) continue;
      std::size_t after = pos + 3;
      while (after < line.size() && line[after] == ' ') ++after;
      if (after < line.size() && line[after] == '(') continue;  // placement
      flagged = true;
    }
    if (flagged) {
      out->push_back({ctx.path, static_cast<int>(i) + 1, "no-hot-alloc",
                      "heap allocation in a wsnlint:hot-path file; the "
                      "per-config inner loop runs allocation-free — build "
                      "into arena/scratch storage or hoist the allocation "
                      "to setup"});
    }
  }
}

}  // namespace

bool FileContext::InDir(const std::string& prefix) const {
  return StartsWith(path, prefix) || path.find("/" + prefix) != std::string::npos;
}

bool FileContext::IsHeader() const { return EndsWith(path, ".h"); }

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"no-wallclock",
       "src/ must not read wall clocks or ambient entropy (std::rand, "
       "random_device, <chrono>); all randomness flows from util::Rng"},
      {"no-unordered-output",
       "files that write CSV/trace/checkpoint output must not use "
       "unordered_map/unordered_set (iteration order is unspecified)"},
      {"no-raw-parse",
       "atoi/strtol/std::stoi-family parsing is confined to src/util/; "
       "everything else uses the validated util parsers"},
      {"header-hygiene",
       "headers start with #pragma once and never use using-namespace at "
       "file scope"},
      {"no-float-eq",
       "no ==/!= against floating-point literals; compare with a tolerance"},
      {"no-naked-new",
       "no naked new/delete in src/; use owning types"},
      {"no-hot-alloc",
       "files carrying a wsnlint:hot-path marker comment must not allocate "
       "on the heap (new/make_unique/make_shared/malloc family); hot loops "
       "build into arena or scratch storage"},
  };
  return kRules;
}

std::vector<Finding> CheckFile(const FileContext& ctx) {
  std::vector<Finding> kept;
  std::vector<analysis::Allow> allows = analysis::ParseAllows(
      "wsnlint", ctx.path, ctx.scan.comments, Rules(), &kept);

  std::vector<Finding> raw;
  CheckWallclock(ctx, &raw);
  CheckUnorderedOutput(ctx, &raw);
  CheckRawParse(ctx, &raw);
  CheckHeaderHygiene(ctx, &raw);
  CheckFloatEq(ctx, &raw);
  CheckNakedNew(ctx, &raw);
  CheckHotAlloc(ctx, &raw);

  analysis::ApplyAllows("wsnlint", ctx.path, allows, std::move(raw), &kept);
  return kept;
}

std::vector<Finding> CheckSource(const std::string& path,
                                 const std::string& content) {
  FileContext ctx;
  ctx.path = path;
  ctx.content = content;
  ctx.scan = ScanSource(content);
  ctx.code_lines = SplitLines(ctx.scan.code);
  return CheckFile(ctx);
}

std::string ApplyFixes(const std::string& path, const std::string& content) {
  if (!EndsWith(path, ".h")) return content;
  const ScanResult scan = ScanSource(content);
  const std::vector<std::string> code_lines = SplitLines(scan.code);
  static const std::regex kPragmaOnce(R"(^\s*#\s*pragma\s+once\b)");
  for (const std::string& line : code_lines) {
    if (std::regex_search(line, kPragmaOnce)) return content;  // already fixed
  }
  // Insert after the leading comment/blank block so file-header prose stays
  // on top, matching the style of every existing header in the repo.
  const std::vector<std::string> raw_lines = SplitLines(content);
  std::size_t insert_at = 0;
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    const bool code_blank =
        i >= code_lines.size() ||
        code_lines[i].find_first_not_of(" \t\r") == std::string::npos;
    const bool raw_blank =
        raw_lines[i].find_first_not_of(" \t\r") == std::string::npos;
    if (code_blank && !raw_blank) {
      insert_at = i + 1;  // comment line: keep scanning
    } else if (raw_blank) {
      continue;  // blank line inside/after the comment block
    } else {
      break;  // first real code line
    }
  }
  std::string fixed;
  for (std::size_t i = 0; i < raw_lines.size(); ++i) {
    if (i == insert_at) {
      fixed += "#pragma once\n";
      // Keep exactly one blank line between the pragma and what follows.
      const bool next_blank =
          raw_lines[i].find_first_not_of(" \t\r") == std::string::npos;
      if (!next_blank) fixed += "\n";
    }
    fixed += raw_lines[i];
    fixed += "\n";
  }
  if (insert_at >= raw_lines.size()) fixed += "#pragma once\n";
  return fixed;
}

}  // namespace wsnlint
