// The three benchmark workloads — campaign, contention, serve — each in four
// phases: an untimed prepare step, one timed set-up, the untraced
// measurement and the traced layer breakdown.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct RunSpec {
  std::string workload;
  std::uint64_t seed = 1;
  /// Nominal measuring time; fixes how many passes of the fixed work run.
  int seconds = 10;
  /// Directory for this run's files (summary CSV, checkpoint, caches).
  std::string work_dir;
  /// Where the traced run writes its span log.
  std::string span_path;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Output checks that failed; a run with any reports no metrics.
  std::vector<std::string> problems;
  /// Human-readable lines printed ahead of the result.
  std::vector<std::string> notes;

  void Check(bool ok, const std::string& what) {
    if (!ok) problems.push_back(what);
  }
  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

[[nodiscard]] bool IsWorkload(const std::string& name);

/// Untimed inputs that must exist before set-up (serve: the warm cache).
void Prepare(const RunSpec& spec);

/// Runs the workload's set-up once in this process and returns its seconds.
[[nodiscard]] double TimeSetUp(const RunSpec& spec);

/// Untraced measurement: every end-to-end metric except setup_s.
[[nodiscard]] Result Measure(const RunSpec& spec);

/// Traced run: the per-layer metrics.
[[nodiscard]] Result Trace(const RunSpec& spec);

}  // namespace perfbench
