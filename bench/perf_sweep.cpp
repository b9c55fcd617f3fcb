// Macro-benchmark for the sweep executor (the campaign hot path).
//
// Runs a ~5,000-configuration sweep (the Table I space subsampled) through
// RunSweep and reports configs/sec, events/sec and heap allocations per
// run, plus a machine-speed calibration score so a committed baseline can
// be compared across hosts. `--check <json>` re-runs the workload and
// fails (exit 1) if the calibration-normalized configs/sec regressed by
// more than the tolerance versus the committed BENCH_sweep.json, or if
// steady-state heap allocations exceed the `--max-allocs` ceiling (the
// zero-alloc invariant: the arena/scratch path must stay allocation-free
// per config, so the ceiling is absolute, not host-relative) — the CI
// perf-smoke gate.
//
// Usage:
//   perf_sweep [--out BENCH_sweep.json] [--check BENCH_sweep.json]
//              [--tolerance 0.25] [--max-allocs 2] [--stride 10]
//              [--packets 60] [--threads 0] [--repeat 3]
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/opt/config_space.h"
#include "experiment/sweep.h"
#include "util/args.h"

// ---------------------------------------------------------------------------
// Allocation counting: global operator new/delete overrides local to this
// binary. Counts every heap allocation on any thread.
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<bool> g_alloc_tracking{false};
}  // namespace

void* operator new(std::size_t size) {
  if (g_alloc_tracking.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Fixed arithmetic workload; its throughput (Mops/s) calibrates machine
// speed so normalized figures are comparable across hosts. Deterministic:
// no I/O, no allocation, integer-only.
double CalibrationScore() {
  constexpr std::uint64_t kIters = 40'000'000;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x += i;
  }
  const auto t1 = Clock::now();
  // Fold x into the result so the loop cannot be optimized away.
  const double jitter = static_cast<double>(x & 1) * 1e-9;
  return static_cast<double>(kIters) / Seconds(t0, t1) / 1e6 + jitter;
}

struct BenchResult {
  std::size_t configs = 0;
  double configs_per_sec = 0.0;
  double events_per_sec = 0.0;
  double allocs_per_run = 0.0;
  double calib_mops = 0.0;
  double normalized = 0.0;  // configs/sec per calibration Mop/s
};

std::uint64_t SumEventsExecuted(
    const std::vector<wsnlink::experiment::SweepPoint>& points) {
  std::uint64_t total = 0;
  for (const auto& point : points) {
    for (const auto& sample : point.counters) {
      if (sample.name == "sim.events_executed") total += sample.value;
    }
  }
  return total;
}

// Pulls `"key": <number>` out of a JSON file written by this tool. Crude
// on purpose: the bench owns both sides of the format. Returns -1 when the
// key is missing or its value is not a plain finite number, so a corrupt
// baseline trips the caller's "no baseline metric" error instead of
// silently comparing against garbage.
double JsonNumber(const std::string& text, const std::string& key) {
  const auto pos = text.find("\"" + key + "\"");
  if (pos == std::string::npos) return -1.0;
  const auto colon = text.find(':', pos);
  if (colon == std::string::npos) return -1.0;
  auto begin = text.find_first_not_of(" \t\n", colon + 1);
  if (begin == std::string::npos) return -1.0;
  auto end = text.find_first_of(",\n}", begin);
  if (end == std::string::npos) end = text.size();
  const auto last = text.find_last_not_of(" \t", end - 1);
  try {
    return wsnlink::util::ParseDouble(text.substr(begin, last - begin + 1),
                                      key);
  } catch (const std::invalid_argument&) {
    return -1.0;
  }
}

void WriteJson(const std::string& path, const BenchResult& r,
               std::size_t packets, unsigned threads) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"schema\": \"wsnlink-bench-sweep-v1\",\n";
  out << "  \"workload\": {\n";
  out << "    \"configs\": " << r.configs << ",\n";
  out << "    \"packets_per_config\": " << packets << ",\n";
  out << "    \"threads\": " << threads << ",\n";
  out << "    \"base_seed\": 20150629\n";
  out << "  },\n";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", r.configs_per_sec);
  out << "  \"configs_per_sec\": " << buf << ",\n";
  std::snprintf(buf, sizeof(buf), "%.0f", r.events_per_sec);
  out << "  \"events_per_sec\": " << buf << ",\n";
  std::snprintf(buf, sizeof(buf), "%.1f", r.allocs_per_run);
  out << "  \"allocs_per_run\": " << buf << ",\n";
  std::snprintf(buf, sizeof(buf), "%.1f", r.calib_mops);
  out << "  \"calibration_mops\": " << buf << ",\n";
  std::snprintf(buf, sizeof(buf), "%.2f", r.normalized);
  out << "  \"configs_per_sec_per_calib_mop\": " << buf << "\n";
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wsnlink;

  util::Args args(argc, argv);
  const auto stride = args.GetSize("--stride", 10);
  const auto packets = static_cast<int>(args.GetSize("--packets", 60));
  const auto threads = static_cast<unsigned>(args.GetSize("--threads", 0));
  const auto repeat = args.GetSize("--repeat", 3);
  const double tolerance = args.GetDouble("--tolerance", 0.25);
  const double max_allocs = args.GetDouble("--max-allocs", 2.0);
  const std::string out_path = args.GetString("--out", "");
  const std::string check_path = args.GetString("--check", "");

  auto space = core::opt::ConfigSpace::PaperTableI();
  std::vector<core::StackConfig> configs;
  for (std::size_t i = 0; i < space.Size(); i += stride) {
    configs.push_back(space.At(i));
  }

  experiment::SweepOptions options;
  options.base_seed = 20150629;
  options.packet_count = packets;
  options.threads = threads;

  std::printf("perf_sweep: %zu configs x %d packets, threads=%u\n",
              configs.size(), packets, threads);

  BenchResult result;
  result.configs = configs.size();
  result.calib_mops = CalibrationScore();

  // Warm-up run (also the allocation measurement: steady-state behavior,
  // pool already spun up).
  {
    auto warm = experiment::RunSweep(configs, options);
    (void)warm;
  }
  g_alloc_count.store(0);
  g_alloc_tracking.store(true);
  auto counted = experiment::RunSweep(configs, options);
  g_alloc_tracking.store(false);
  result.allocs_per_run = static_cast<double>(g_alloc_count.load()) /
                          static_cast<double>(configs.size());

  double best_elapsed = 1e300;
  std::uint64_t events = 0;
  for (std::size_t r = 0; r < repeat; ++r) {
    const auto t0 = Clock::now();
    auto points = experiment::RunSweep(configs, options);
    const auto t1 = Clock::now();
    const double elapsed = Seconds(t0, t1);
    if (elapsed < best_elapsed) {
      best_elapsed = elapsed;
      events = SumEventsExecuted(points);
    }
  }
  result.configs_per_sec =
      static_cast<double>(configs.size()) / best_elapsed;
  result.events_per_sec = static_cast<double>(events) / best_elapsed;
  result.normalized = result.configs_per_sec / result.calib_mops;

  std::printf("  calib        %10.1f Mops/s\n", result.calib_mops);
  std::printf("  configs/sec  %10.0f\n", result.configs_per_sec);
  std::printf("  events/sec   %10.0f\n", result.events_per_sec);
  std::printf("  allocs/run   %10.1f\n", result.allocs_per_run);
  std::printf("  normalized   %10.2f configs/sec per calib Mop\n",
              result.normalized);

  if (!out_path.empty()) {
    WriteJson(out_path, result, static_cast<std::size_t>(packets), threads);
    std::printf("wrote %s\n", out_path.c_str());
  }

  if (!check_path.empty()) {
    std::ifstream in(check_path);
    if (!in) {
      std::fprintf(stderr, "perf_sweep: cannot read %s\n",
                   check_path.c_str());
      return 2;
    }
    std::stringstream ss;
    ss << in.rdbuf();
    const double committed =
        JsonNumber(ss.str(), "configs_per_sec_per_calib_mop");
    if (committed <= 0.0) {
      std::fprintf(stderr, "perf_sweep: no baseline metric in %s\n",
                   check_path.c_str());
      return 2;
    }
    const double floor = committed * (1.0 - tolerance);
    std::printf("check: normalized %.2f vs committed %.2f (floor %.2f)\n",
                result.normalized, committed, floor);
    if (result.normalized < floor) {
      std::fprintf(stderr,
                   "perf_sweep: REGRESSION — normalized throughput %.2f "
                   "is below %.2f (committed %.2f - %g%%)\n",
                   result.normalized, floor, committed, tolerance * 100);
      return 1;
    }
    // The allocation gate is a hard ceiling, never host-normalized: the
    // arena/scratch executor is designed to run allocation-free per
    // config, so any drift here is a real leak back onto the heap, not
    // machine noise.
    std::printf("check: allocs/run %.1f vs ceiling %.1f\n",
                result.allocs_per_run, max_allocs);
    if (result.allocs_per_run > max_allocs) {
      std::fprintf(stderr,
                   "perf_sweep: REGRESSION — %.1f heap allocations per "
                   "config exceeds the zero-alloc ceiling of %.1f\n",
                   result.allocs_per_run, max_allocs);
      return 1;
    }
    std::printf("check: OK\n");
  }
  return 0;
}
