#include "source_tree.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

namespace analysis {
namespace {

namespace fs = std::filesystem;

bool HasSourceExtension(const fs::path& path) {
  const std::string ext = path.extension().string();
  return ext == ".h" || ext == ".cpp" || ext == ".cc";
}

std::string ReadFile(const std::string& tool, const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error(tool + ": cannot read " + path.string());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

}  // namespace

bool IsExcluded(const std::string& relative_path) {
  static const std::vector<std::string> kExcludedParts = {
      "lint_fixtures",    // violation corpus for the wsnlint golden test
      "static_fixtures",  // violation corpus for the wsnstatic golden test
      "golden",           // checked-in expected outputs, not code
      ".git",
  };
  for (const std::string& part : kExcludedParts) {
    if (relative_path.find(part) != std::string::npos) return true;
  }
  // Out-of-source build trees checked out under the repo root.
  return relative_path.rfind("build", 0) == 0;
}

std::vector<std::pair<std::string, std::string>> ReadSourceTree(
    const std::string& tool, const std::string& root,
    const std::vector<std::string>& paths,
    const std::vector<std::string>& default_paths) {
  const fs::path base = fs::absolute(root);
  std::vector<fs::path> files;
  for (const std::string& entry : paths.empty() ? default_paths : paths) {
    const fs::path path = base / entry;
    if (fs::is_regular_file(path)) {
      files.push_back(path);
    } else if (fs::is_directory(path)) {
      for (const auto& item : fs::recursive_directory_iterator(path)) {
        if (item.is_regular_file() && HasSourceExtension(item.path())) {
          files.push_back(item.path());
        }
      }
    } else {
      throw std::runtime_error(tool + ": no such file or directory: " +
                               path.string());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());

  std::vector<std::pair<std::string, std::string>> sources;
  for (const fs::path& file : files) {
    // '/'-separated path relative to root, for stable cross-platform output.
    std::string rel = fs::relative(file, base).generic_string();
    if (IsExcluded(rel)) continue;
    sources.emplace_back(std::move(rel), ReadFile(tool, file));
  }
  return sources;
}

}  // namespace analysis
