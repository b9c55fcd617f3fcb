#include "checks.h"

#include <algorithm>
#include <map>
#include <regex>
#include <set>
#include <utility>

namespace wsnstatic {
namespace {

using analysis::Finding;

std::string Qualified(const FunctionInfo& fn) {
  return fn.class_name.empty() ? fn.name : fn.class_name + "::" + fn.name;
}

std::string BodyText(const Index& index, const FunctionInfo& fn) {
  const SourceFile* file = index.FileByPath(fn.file);
  if (!file || fn.body_end <= fn.body_begin) return "";
  return file->scan.code.substr(fn.body_begin, fn.body_end - fn.body_begin);
}

bool MentionsWord(const std::string& text, const std::string& word) {
  return std::regex_search(text, std::regex("\\b" + word + "\\b"));
}

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// --- transient / serdes marker bookkeeping ----------------------------------

struct TransientEntry {
  std::string id;
  int line = 0;
  bool has_reason = false;
  bool matched = false;  // names a member of some checked type in its file
  bool used = false;     // actually exempted a would-be finding
};

using TransientMap = std::map<std::string, std::vector<TransientEntry>>;

TransientMap CollectTransients(const Index& index, std::vector<Finding>* out) {
  TransientMap map;
  for (const SourceFile& file : index.files) {
    for (const analysis::Marker& marker : file.markers) {
      if (marker.verb != "transient") continue;
      if (marker.ids.empty()) {
        out->push_back({file.path, marker.line, "marker-directive",
                        "wsnstatic:transient needs at least one member name"});
        continue;
      }
      for (const std::string& id : marker.ids) {
        if (!marker.has_reason) {
          out->push_back({file.path, marker.line, "marker-directive",
                          "wsnstatic:transient(" + id +
                              ") needs a one-line justification after ':'"});
        }
        map[file.path].push_back(
            {id, marker.line, marker.has_reason, false, false});
      }
    }
  }
  return map;
}

/// Finds the transient entry for `member` in `file`, if any, marking it
/// matched (and used when `use` is set).
TransientEntry* LookupTransient(TransientMap& map, const std::string& file,
                                const std::string& member, bool use) {
  auto it = map.find(file);
  if (it == map.end()) return nullptr;
  for (TransientEntry& entry : it->second) {
    if (entry.id == member) {
      entry.matched = true;
      if (use) entry.used = true;
      return &entry;
    }
  }
  return nullptr;
}

/// Core of serdes-complete: every member of `cls` must be mentioned in both
/// bodies or carry a transient marker in the class's own file.
void CheckRoundTrip(const ClassInfo& cls, const std::string& save_body,
                    const std::string& restore_body,
                    const std::string& save_name,
                    const std::string& restore_name, const std::string& rule,
                    const std::string& what, TransientMap& transients,
                    std::vector<Finding>* out) {
  for (const Member& member : cls.members) {
    const bool saved = MentionsWord(save_body, member.name);
    const bool restored = MentionsWord(restore_body, member.name);
    if (saved && restored) {
      LookupTransient(transients, cls.file, member.name, /*use=*/false);
      continue;
    }
    if (LookupTransient(transients, cls.file, member.name, /*use=*/true)) {
      continue;
    }
    std::string problem;
    if (!saved && !restored) {
      problem = "is not round-tripped by '" + save_name + "'/'" +
                restore_name + "'";
    } else if (!saved) {
      problem = "is not written by '" + save_name + "'";
    } else {
      problem = "is not read back by '" + restore_name + "'";
    }
    out->push_back({cls.file, member.line, rule,
                    what + " '" + member.name + "' of '" + cls.name + "' " +
                        problem +
                        "; round-trip it or mark it wsnstatic:transient "
                        "with a reason"});
  }
}

// --- family 1: declared serialize/parse mirrors -----------------------------

void CheckSerdes(const Index& index, TransientMap& transients,
                 std::vector<Finding>* out) {
  for (const SourceFile& file : index.files) {
    for (const analysis::Marker& marker : file.markers) {
      if (marker.verb != "serdes") continue;
      if (marker.ids.size() != 3) {
        out->push_back(
            {file.path, marker.line, "marker-directive",
             "wsnstatic:serdes needs exactly (Struct, WriteFn, ReadFn)"});
        continue;
      }
      const std::string& struct_name = marker.ids[0];
      const auto resolve_fn =
          [&](const std::string& name) -> const FunctionInfo* {
        const FunctionInfo* fallback = nullptr;
        for (const FunctionInfo* fn : index.FunctionsNamed(name)) {
          if (fn->file == file.path) return fn;
          if (!fallback) fallback = fn;
        }
        return fallback;
      };
      const ClassInfo* cls = nullptr;
      for (const ClassInfo* candidate : index.ClassesNamed(struct_name)) {
        cls = candidate;
        if (candidate->file == file.path) break;
      }
      const FunctionInfo* write_fn = resolve_fn(marker.ids[1]);
      const FunctionInfo* read_fn = resolve_fn(marker.ids[2]);
      if (!cls || !write_fn || !read_fn) {
        const std::string missing =
            !cls ? "struct '" + struct_name + "'"
                 : "function '" + (!write_fn ? marker.ids[1] : marker.ids[2]) +
                       "'";
        out->push_back({file.path, marker.line, "marker-directive",
                        "wsnstatic:serdes(" + struct_name +
                            ") cannot resolve " + missing +
                            " in the scanned tree"});
        continue;
      }
      CheckRoundTrip(*cls, BodyText(index, *write_fn),
                     BodyText(index, *read_fn), Qualified(*write_fn),
                     Qualified(*read_fn), "serdes-complete", "field",
                     transients, out);
    }
  }
}

// --- family 2: transitive hot-path purity -----------------------------------

void CheckHotPaths(const Index& index, std::vector<Finding>* out) {
  // Roots: every function defined in a wsnlint:hot-path file. wsnlint
  // already polices those files token-by-token; this rule follows calls
  // out of them, matching callees by unqualified name (a deliberate
  // over-approximation: a shared name means the body may run hot).
  std::vector<std::size_t> worklist;
  std::vector<std::string> origin(index.functions.size());
  std::vector<bool> visited(index.functions.size(), false);
  for (std::size_t i = 0; i < index.functions.size(); ++i) {
    const SourceFile* file = index.FileByPath(index.functions[i].file);
    if (file && file->hot_path) {
      visited[i] = true;
      origin[i] = Qualified(index.functions[i]);
      worklist.push_back(i);
    }
  }
  std::map<std::string, std::vector<std::size_t>> by_name;
  for (std::size_t i = 0; i < index.functions.size(); ++i) {
    by_name[index.functions[i].name].push_back(i);
  }
  for (std::size_t head = 0; head < worklist.size(); ++head) {
    const std::size_t fn_index = worklist[head];
    for (const std::string& callee : index.functions[fn_index].calls) {
      const auto it = by_name.find(callee);
      if (it == by_name.end()) continue;
      for (const std::size_t next : it->second) {
        if (visited[next]) continue;
        visited[next] = true;
        origin[next] = origin[fn_index];
        worklist.push_back(next);
      }
    }
  }

  static const std::regex kHeapCall(
      R"(\bmake_(unique|shared)\s*<|\b(malloc|calloc|realloc|strdup)\s*\()");
  static const std::regex kNew(R"(\bnew\b)");
  static const std::regex kOperatorPrefix(R"(operator\s*$)");
  static const std::regex kWallclock(
      R"((\bstd::rand\b|\bsrand\s*\(|\brand\s*\(|\brandom_device\b)"
      R"(|\bsystem_clock\b|\bsteady_clock\b|\bhigh_resolution_clock\b)"
      R"(|\bgettimeofday\b|\btime\s*\(\s*(nullptr|NULL|0)\s*\))"
      R"(|\bclock\s*\(\s*\)))");

  for (std::size_t i = 0; i < index.functions.size(); ++i) {
    if (!visited[i]) continue;
    const FunctionInfo& fn = index.functions[i];
    const SourceFile* file = index.FileByPath(fn.file);
    if (!file || file->hot_path) continue;  // roots are wsnlint's job
    const std::string body = BodyText(index, fn);
    const std::vector<std::string> lines = analysis::SplitLines(body);
    const int first_line = Index::LineOf(*file, fn.body_begin);
    for (std::size_t l = 0; l < lines.size(); ++l) {
      const std::string& line = lines[l];
      bool heap = std::regex_search(line, kHeapCall);
      for (auto it = std::sregex_iterator(line.begin(), line.end(), kNew);
           !heap && it != std::sregex_iterator(); ++it) {
        const std::size_t pos = static_cast<std::size_t>(it->position());
        if (std::regex_search(line.substr(0, pos), kOperatorPrefix)) continue;
        std::size_t after = pos + 3;
        while (after < line.size() && line[after] == ' ') ++after;
        if (after < line.size() && line[after] == '(') continue;  // placement
        heap = true;
      }
      if (heap) {
        out->push_back(
            {fn.file, first_line + static_cast<int>(l), "hot-path-transitive",
             "heap allocation in '" + Qualified(fn) +
                 "', reachable from wsnlint:hot-path root '" + origin[i] +
                 "'; the per-config inner loop runs allocation-free — build "
                 "into arena/scratch storage or hoist to setup"});
      }
      if (std::regex_search(line, kWallclock)) {
        out->push_back(
            {fn.file, first_line + static_cast<int>(l), "hot-path-transitive",
             "wall-clock/ambient entropy in '" + Qualified(fn) +
                 "', reachable from wsnlint:hot-path root '" + origin[i] +
                 "'; draw from the seeded util::Rng lineage"});
      }
    }
  }
}

// --- family 3: worker-thread isolation ---------------------------------------

bool IsLpRoot(const std::string& path) {
  return EndsWith(path, "util/thread_pool.cpp") ||
         EndsWith(path, "experiment/sweep.cpp") ||
         path.find("serve/") != std::string::npos;
}

void CheckLpIsolation(const Index& index, std::vector<Finding>* out) {
  // Reachability over the include graph, with each header pulling in its
  // same-basename implementation file (calling through the header runs the
  // .cpp). Roots are the concurrent execution entries: the shared worker
  // pool, the sweep worker body, and serve/.
  std::map<std::string, std::size_t> by_path;
  for (std::size_t i = 0; i < index.files.size(); ++i) {
    by_path[index.files[i].path] = i;
  }
  const auto resolve = [&](const std::string& target) -> std::size_t {
    auto it = by_path.find(target);
    if (it == by_path.end()) it = by_path.find("src/" + target);
    return it == by_path.end() ? index.files.size() : it->second;
  };

  std::vector<bool> reachable(index.files.size(), false);
  std::vector<std::string> origin(index.files.size());
  std::vector<std::size_t> worklist;
  for (std::size_t i = 0; i < index.files.size(); ++i) {
    if (IsLpRoot(index.files[i].path)) {
      reachable[i] = true;
      origin[i] = index.files[i].path;
      worklist.push_back(i);
    }
  }
  const auto visit = [&](std::size_t next, const std::string& from) {
    if (next >= index.files.size() || reachable[next]) return;
    reachable[next] = true;
    origin[next] = from;
    worklist.push_back(next);
  };
  for (std::size_t head = 0; head < worklist.size(); ++head) {
    const std::size_t file_index = worklist[head];
    const SourceFile& file = index.files[file_index];
    for (const Include& include : file.includes) {
      visit(resolve(include.target), origin[file_index]);
    }
    if (EndsWith(file.path, ".h")) {
      visit(resolve(file.path.substr(0, file.path.size() - 2) + ".cpp"),
            origin[file_index]);
    }
  }

  static const std::regex kStaticHead(R"(^\s*(static|thread_local)\b)");
  for (std::size_t i = 0; i < index.files.size(); ++i) {
    if (!reachable[i]) continue;
    const SourceFile& file = index.files[i];
    if (!EndsWith(file.path, ".cpp") && !EndsWith(file.path, ".cc")) continue;
    for (std::size_t l = 0; l < file.code_lines.size(); ++l) {
      if (!std::regex_search(file.code_lines[l], kStaticHead)) continue;
      // Gather the whole statement (may span lines).
      std::string statement = file.code_lines[l];
      std::size_t end = l;
      while (statement.find(';') == std::string::npos &&
             statement.find('{') == std::string::npos &&
             end + 1 < file.code_lines.size()) {
        statement += " " + file.code_lines[++end];
      }
      // Immutable state is fine; so are function declarations/definitions.
      static const std::regex kImmutable(
          R"(\b(constexpr|consteval)\b|\b(static|thread_local)\s+const\b)");
      if (std::regex_search(statement, kImmutable)) continue;
      const std::size_t paren = statement.find('(');
      if (paren != std::string::npos) {
        int depth = 0;
        std::size_t close = std::string::npos;
        for (std::size_t p = paren; p < statement.size(); ++p) {
          if (statement[p] == '(') ++depth;
          if (statement[p] == ')' && --depth == 0) {
            close = p;
            break;
          }
        }
        if (close == std::string::npos) continue;  // malformed; bail out
        const std::string args =
            statement.substr(paren + 1, close - paren - 1);
        const std::string after = statement.substr(close + 1);
        const bool is_function =
            args.find_first_not_of(" \t") == std::string::npos ||
            after.find('{') != std::string::npos;
        if (is_function) continue;
      }
      // The declared name: last identifier before the first of `=(;{`.
      std::size_t name_end = statement.find_first_of("=({;");
      if (name_end == std::string::npos) name_end = statement.size();
      while (name_end > 0 && !(std::isalnum(static_cast<unsigned char>(
                                   statement[name_end - 1])) ||
                               statement[name_end - 1] == '_')) {
        --name_end;
      }
      std::size_t name_begin = name_end;
      while (name_begin > 0 &&
             (std::isalnum(
                  static_cast<unsigned char>(statement[name_begin - 1])) ||
              statement[name_begin - 1] == '_')) {
        --name_begin;
      }
      const std::string name =
          statement.substr(name_begin, name_end - name_begin);
      if (name.empty()) continue;
      out->push_back(
          {file.path, static_cast<int>(l) + 1, "lp-isolation",
           "mutable static '" + name + "' in a file reachable from '" +
               origin[i] +
               "'; state shared across worker threads races between "
               "concurrent runs — keep it per-run or per-worker, or justify "
               "with wsnstatic:allow(lp-isolation)"});
    }
  }
}

// --- family 4: layer DAG ------------------------------------------------------

const std::map<std::string, int>& LayerLevels() {
  static const std::map<std::string, int> kLevels = {
      {"util", 0},    {"sim", 1},        {"trace", 1},    {"phy", 2},
      {"channel", 2}, {"mac", 3},        {"core", 3},     {"link", 4},
      {"app", 5},     {"node", 6},       {"metrics", 7},  {"experiment", 8},
      {"validate", 8}, {"serve", 9},
  };
  return kLevels;
}

std::string LayerDirOf(const std::string& path) {
  const std::size_t src = path.rfind("src/");
  if (src == std::string::npos) return "";
  const std::size_t begin = src + 4;
  const std::size_t slash = path.find('/', begin);
  if (slash == std::string::npos) return "";
  return path.substr(begin, slash - begin);
}

void CheckLayerDag(const Index& index, std::vector<Finding>* out) {
  const auto& levels = LayerLevels();
  for (const SourceFile& file : index.files) {
    const std::string from_dir = LayerDirOf(file.path);
    const auto from_it = levels.find(from_dir);
    if (from_it == levels.end()) continue;
    for (const Include& include : file.includes) {
      const std::size_t slash = include.target.find('/');
      if (slash == std::string::npos) continue;
      const std::string to_dir = include.target.substr(0, slash);
      const auto to_it = levels.find(to_dir);
      if (to_it == levels.end()) continue;
      if (to_it->second <= from_it->second) continue;
      bool escaped = false;
      for (const LayerEscape& escape : LayerEscapes()) {
        if (escape.from_dir == from_dir && escape.to_dir == to_dir) {
          escaped = true;
          break;
        }
      }
      if (escaped) continue;
      out->push_back(
          {file.path, include.line, "layer-dag",
           "include \"" + include.target + "\" points upward: " + from_dir +
               " (level " + std::to_string(from_it->second) +
               ") may not depend on " + to_dir + " (level " +
               std::to_string(to_it->second) +
               "); invert the dependency or add a reviewed escape hatch in "
               "tools/wsnstatic/checks.cpp"});
    }
  }
}

// --- marker follow-up ---------------------------------------------------------

void ReportTransientProblems(const TransientMap& transients,
                             std::vector<Finding>* out) {
  for (const auto& [file, entries] : transients) {
    for (const TransientEntry& entry : entries) {
      if (!entry.matched) {
        out->push_back({file, entry.line, "marker-directive",
                        "wsnstatic:transient(" + entry.id +
                            ") names no member of a serdes-checked "
                            "type in this file; remove it"});
      } else if (!entry.used && entry.has_reason) {
        out->push_back({file, entry.line, "marker-directive",
                        "stale wsnstatic:transient(" + entry.id + "): '" +
                            entry.id +
                            "' is round-tripped already; remove it"});
      }
    }
  }
}

}  // namespace

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {"serdes-complete",
       "every field of a struct registered via wsnstatic:serdes(Struct, "
       "WriteFn, ReadFn) is written by WriteFn and read back by ReadFn"},
      {"hot-path-transitive",
       "no heap allocation or wall-clock/entropy reads in functions "
       "reachable from wsnlint:hot-path roots through the cross-TU call "
       "graph"},
      {"lp-isolation",
       "no unjustified mutable static state in files reachable from the "
       "worker pool, the sweep workers, or serve/ handlers"},
      {"layer-dag",
       "quoted includes respect the layer order util < sim/trace < "
       "phy/channel < mac/core < link < app < node < metrics < "
       "experiment/validate < serve"},
  };
  return kRules;
}

bool IsKnownRule(const std::string& id) {
  const auto& rules = Rules();
  return std::any_of(rules.begin(), rules.end(),
                     [&](const RuleInfo& r) { return r.id == id; });
}

const std::vector<LayerEscape>& LayerEscapes() {
  static const std::vector<LayerEscape> kEscapes = {
      // (no tolerated upward edges today; add entries only with review)
  };
  return kEscapes;
}

std::vector<Finding> CheckIndex(const Index& index) {
  std::vector<Finding> raw;
  TransientMap transients = CollectTransients(index, &raw);
  CheckSerdes(index, transients, &raw);
  CheckHotPaths(index, &raw);
  CheckLpIsolation(index, &raw);
  CheckLayerDag(index, &raw);
  ReportTransientProblems(transients, &raw);

  // Apply file-scope wsnstatic:allow directives per file, sharing the
  // justification/stale bookkeeping (and its exact messages) with wsnlint.
  std::map<std::string, std::vector<Finding>> by_file;
  for (Finding& finding : raw) {
    by_file[finding.file].push_back(std::move(finding));
  }
  std::vector<Finding> kept;
  for (const SourceFile& file : index.files) {
    std::vector<analysis::Allow> allows = analysis::ParseAllows(
        "wsnstatic", file.path, file.scan.comments, IsKnownRule, &kept);
    auto it = by_file.find(file.path);
    std::vector<Finding> file_findings;
    if (it != by_file.end()) file_findings = std::move(it->second);
    analysis::ApplyAllows("wsnstatic", file.path, allows,
                          std::move(file_findings), &kept);
    if (it != by_file.end()) by_file.erase(it);
  }
  // Findings attributed to paths outside the index (should not happen, but
  // never drop a finding silently).
  for (auto& [path, findings] : by_file) {
    for (Finding& finding : findings) kept.push_back(std::move(finding));
  }
  return kept;
}

}  // namespace wsnstatic
