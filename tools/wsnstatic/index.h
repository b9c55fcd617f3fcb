// Cross-translation-unit structural index for wsnstatic.
//
// Where wsnlint (tools/wsnlint) is a per-file token linter, wsnstatic needs
// *structure*: which classes exist, what data members they declare, which
// functions are defined where (including out-of-line `Class::Method`
// bodies), what each body calls, and what each file includes. This header
// defines that index; index.cpp builds it from the blanked code view
// produced by analysis::ScanSource, with a brace/paren-matching statement
// walker — still no libclang, so the analyzer builds anywhere the simulator
// does.
//
// The parse is deliberately conservative and convention-driven (the repo is
// clang-format'd Google style): depth-1 member declarations, functions
// recognised by `head(...) {` shape, calls matched by unqualified name.
// Over-approximation is fine — every consumer treats a match as "possibly
// the same entity" and errs toward checking more, never less.
#pragma once

#include <string>
#include <vector>

#include "markers.h"
#include "source_scanner.h"

namespace wsnstatic {

/// One quoted include directive (`#include "dir/file.h"`).
struct Include {
  std::string target;  // include path as written, '/'-separated
  int line = 0;        // 1-based
};

/// One data member declaration. Only per-instance mutable state is
/// recorded: `static`, `const`, `mutable`, and reference members are
/// skipped (they cannot or need not round-trip through a serdes pair).
struct Member {
  std::string name;
  int line = 0;
};

/// One class/struct declaration (nested types get their own entry).
struct ClassInfo {
  std::string name;  // unqualified
  std::string file;
  int line = 0;
  std::vector<Member> members;
};

/// One function *definition* (a body was found).
struct FunctionInfo {
  std::string name;        // unqualified, e.g. "WriteCheckpoint"
  std::string class_name;  // enclosing/qualifying class; "" = free function
  std::string file;
  int line = 0;                     // 1-based line of the body's open brace
  std::size_t body_begin = 0;       // offsets into the file's blanked code
  std::size_t body_end = 0;         // [begin, end) excludes the braces
  std::vector<std::string> calls;   // unqualified callee names, sorted+deduped
};

/// One analyzed source file.
struct SourceFile {
  std::string path;  // repo-relative, '/'-separated
  std::string content;
  analysis::ScanResult scan;
  std::vector<std::string> code_lines;       // SplitLines(scan.code)
  std::vector<analysis::Marker> markers;     // wsnstatic:* directives
  bool hot_path = false;                     // carries wsnlint:hot-path
  std::vector<Include> includes;
};

/// The whole-tree index. Vectors are sorted (files by path, classes by
/// (name, file), functions by (class_name, name, file, line)) so every
/// traversal — and therefore every report — is deterministic.
struct Index {
  std::vector<SourceFile> files;
  std::vector<ClassInfo> classes;
  std::vector<FunctionInfo> functions;

  [[nodiscard]] const SourceFile* FileByPath(const std::string& path) const;
  /// All classes with the given unqualified name.
  [[nodiscard]] std::vector<const ClassInfo*> ClassesNamed(
      const std::string& name) const;
  /// All function definitions with the given unqualified name.
  [[nodiscard]] std::vector<const FunctionInfo*> FunctionsNamed(
      const std::string& name) const;
  /// 1-based line of byte `offset` within `file`'s code view.
  [[nodiscard]] static int LineOf(const SourceFile& file, std::size_t offset);
};

/// Builds the index from (path, content) pairs.
[[nodiscard]] Index BuildIndex(
    std::vector<std::pair<std::string, std::string>> sources);

}  // namespace wsnstatic
