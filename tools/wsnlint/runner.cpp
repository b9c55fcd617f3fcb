#include "runner.h"

#include <filesystem>
#include <fstream>
#include <stdexcept>

#include "source_tree.h"

namespace wsnlint {

RunResult Run(const Options& options) {
  RunResult result;
  for (auto& [path, content] : analysis::ReadSourceTree(
           "wsnlint", options.root, options.paths,
           {"src", "bench", "examples", "tests", "tools"})) {
    if (options.fix) {
      const std::string fixed = ApplyFixes(path, content);
      if (fixed != content) {
        const std::filesystem::path file =
            std::filesystem::absolute(options.root) / path;
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        out << fixed;
        if (!out) {
          throw std::runtime_error("wsnlint: cannot write " + file.string());
        }
        content = fixed;
        ++result.files_fixed;
      }
    }
    std::vector<Finding> findings = CheckSource(path, content);
    result.findings.insert(result.findings.end(),
                           std::make_move_iterator(findings.begin()),
                           std::make_move_iterator(findings.end()));
    ++result.files_scanned;
  }
  return result;
}

}  // namespace wsnlint
