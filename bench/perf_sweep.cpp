// Macro-benchmark for the sweep executor (the campaign hot path).
//
// Runs a ~5,000-configuration sweep (the Table I space subsampled) through
// RunSweep and reports configs/sec, events/sec and heap allocations per
// run. It fails (exit 1) whenever steady-state heap allocations exceed
// kMaxAllocsPerConfig: the scratch path must stay allocation-free per
// config, and allocation counts do not depend on the host, so the ceiling
// is an absolute constant. Throughput is not judged here;
// bench/perf_gate.py compares it with the parent commit's binary on the
// same runner (the CI perf-smoke gate).
//
// Usage:
//   perf_sweep [--out BENCH_sweep.json] [--stride 10] [--packets 60]
//              [--threads 0] [--repeat 3]
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <thread>
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

/// Heap allocations per config allowed in a steady-state sweep.
constexpr double kMaxAllocsPerConfig = 2.0;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct BenchResult {
  std::size_t configs = 0;
  double configs_per_sec = 0.0;
  double events_per_sec = 0.0;
  double allocs_per_run = 0.0;
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

void WriteJson(const std::string& path, const BenchResult& r,
               std::size_t packets, unsigned host_cores, unsigned threads) {
  std::ofstream out(path);
  out << "{\n";
  out << "  \"schema\": \"wsnlink-bench-v1\",\n";
  out << "  \"workload\": {\n";
  out << "    \"configs\": " << r.configs << ",\n";
  out << "    \"packets_per_config\": " << packets << ",\n";
  out << "    \"base_seed\": 20150629\n";
  out << "  },\n";
  out << "  \"host_cores\": " << host_cores << ",\n";
  out << "  \"threads\": " << threads << ",\n";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.0f", r.configs_per_sec);
  out << "  \"configs_per_sec\": " << buf << ",\n";
  std::snprintf(buf, sizeof(buf), "%.0f", r.events_per_sec);
  out << "  \"events_per_sec\": " << buf << ",\n";
  std::snprintf(buf, sizeof(buf), "%.1f", r.allocs_per_run);
  out << "  \"allocs_per_run\": " << buf << "\n";
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
  const std::string out_path = args.GetString("--out", "");

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

  std::printf("  configs/sec  %10.0f\n", result.configs_per_sec);
  std::printf("  events/sec   %10.0f\n", result.events_per_sec);
  std::printf("  allocs/run   %10.1f\n", result.allocs_per_run);

  if (result.allocs_per_run > kMaxAllocsPerConfig) {
    std::fprintf(stderr,
                 "perf_sweep: %.4f heap allocations per config exceeds the "
                 "zero-alloc ceiling of %.1f\n",
                 result.allocs_per_run, kMaxAllocsPerConfig);
    return 1;
  }

  if (!out_path.empty()) {
    const unsigned host_cores = std::thread::hardware_concurrency();
    WriteJson(out_path, result, static_cast<std::size_t>(packets), host_cores,
              threads == 0 ? host_cores : threads);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
}
