// Macro-benchmark for the tuning service answer path.
//
// Drives an in-process QueryService (the daemon minus the socket, which is
// how the serving work is actually done — the TCP layer only frames bytes)
// with a fixed what_if workload twice: once cold (every request is a cache
// miss and runs the simulator) and once hot (every request is a cache hit).
// Reports throughput and p50/p99 latency for both phases plus the
// hit-over-miss ratio of median latencies — the number that justifies the
// cache's existence. It fails (exit 1) whenever that ratio is below
// kMinHitOverMiss: both phases run on the same host in the same process,
// so the floor is an absolute constant. Hit throughput is not judged here;
// bench/perf_gate.py compares it with the parent commit's binary on the
// same runner (the CI perf-smoke gate). Requests are answered one at a
// time on the calling thread.
//
// Usage:
//   perf_serve [--out BENCH_serve.json] [--requests 48] [--packets 120]
//              [--hot-repeat 20]
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/query_service.h"
#include "util/args.h"

namespace {

using Clock = std::chrono::steady_clock;

/// Least speedup of a median cache hit over a median cold miss that
/// justifies the cache.
constexpr double kMinHitOverMiss = 10.0;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

struct PhaseResult {
  double throughput_rps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
};

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

/// Answers every line one at a time, timing each round trip.
PhaseResult RunPhase(wsnlink::serve::QueryService& service,
                     const std::vector<std::string>& lines, int repeat) {
  std::vector<double> latencies_us;
  latencies_us.reserve(lines.size() * static_cast<std::size_t>(repeat));
  const auto t0 = Clock::now();
  for (int r = 0; r < repeat; ++r) {
    for (const std::string& line : lines) {
      const auto a = Clock::now();
      const std::string reply = service.Answer(line);
      const auto b = Clock::now();
      if (reply.find("\"status\":\"ok\"") == std::string::npos) {
        throw std::runtime_error("perf_serve: unexpected reply " + reply);
      }
      latencies_us.push_back(
          std::chrono::duration<double, std::micro>(b - a).count());
    }
  }
  const auto t1 = Clock::now();
  PhaseResult result;
  result.throughput_rps =
      static_cast<double>(latencies_us.size()) / Seconds(t0, t1);
  result.p50_us = Percentile(latencies_us, 0.50);
  result.p99_us = Percentile(latencies_us, 0.99);
  return result;
}

/// The fixed workload: `count` distinct what_if requests spanning the
/// Table I knobs (distinct canonical keys, so the cold phase is all
/// misses and the hot phase all hits).
std::vector<std::string> MakeWorkload(std::size_t count, int packets) {
  const int pa_levels[] = {3, 7, 11, 15, 19, 23, 27, 31};
  const int payloads[] = {10, 30, 50, 70, 90, 114};
  std::vector<std::string> lines;
  lines.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::ostringstream line;
    line << "{\"verb\":\"what_if\",\"distance_m\":20,\"pa_level\":"
         << pa_levels[i % 8] << ",\"max_tries\":3,\"retry_delay_ms\":0,"
         << "\"queue_capacity\":30,\"pkt_interval_ms\":100,"
         << "\"payload_bytes\":" << payloads[(i / 8) % 6]
         << ",\"packets\":" << packets << ",\"seed\":" << (1 + i / 48)
         << "}";
    lines.push_back(line.str());
  }
  return lines;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wsnlink;
  try {
    const util::Args args(
        argc, argv, {"--requests", "--packets", "--hot-repeat", "--out"}, {});
    const std::size_t requests = args.GetSize("--requests", 48);
    const int packets = static_cast<int>(args.GetSize("--packets", 120));
    const int hot_repeat =
        static_cast<int>(args.GetSize("--hot-repeat", 20));
    const std::string out_path = args.GetString("--out", "");

    const std::vector<std::string> workload = MakeWorkload(requests, packets);

    serve::QueryService service{serve::ServiceOptions()};

    std::printf("perf_serve: %zu what_if requests x %d packets\n",
                workload.size(), packets);

    const PhaseResult cold = RunPhase(service, workload, 1);
    const serve::ServiceStats after_cold = service.Stats();
    if (after_cold.cache_misses != workload.size()) {
      std::fprintf(stderr, "perf_serve: cold phase had %llu misses, want"
                   " %zu\n",
                   static_cast<unsigned long long>(after_cold.cache_misses),
                   workload.size());
      return 2;
    }
    const PhaseResult hot = RunPhase(service, workload, hot_repeat);
    const serve::ServiceStats after_hot = service.Stats();
    if (after_hot.cache_misses != after_cold.cache_misses) {
      std::fprintf(stderr, "perf_serve: hot phase missed the cache\n");
      return 2;
    }

    // Medians, not throughputs: one host stall (about 100 ms was seen) that
    // lands in the hot phase, which is tens of milliseconds long, cuts its
    // throughput several-fold but leaves its median latency alone.
    const double ratio = cold.p50_us / hot.p50_us;

    std::printf("  cold miss      %12.1f req/s  p50 %.0f us  p99 %.0f us\n",
                cold.throughput_rps, cold.p50_us, cold.p99_us);
    std::printf("  cache hit      %12.1f req/s  p50 %.1f us  p99 %.1f us\n",
                hot.throughput_rps, hot.p50_us, hot.p99_us);
    std::printf("  hit/miss ratio %12.1fx\n", ratio);

    if (ratio < kMinHitOverMiss) {
      std::fprintf(stderr, "perf_serve: hit/miss ratio %.1fx is under the"
                   " %.1fx floor\n",
                   ratio, kMinHitOverMiss);
      return 1;
    }

    if (!out_path.empty()) {
      std::ofstream out(out_path);
      out << "{\n";
      out << "  \"schema\": \"wsnlink-bench-v1\",\n";
      out << "  \"workload\": {\n";
      out << "    \"requests\": " << workload.size() << ",\n";
      out << "    \"packets_per_request\": " << packets << ",\n";
      out << "    \"hot_repeat\": " << hot_repeat << "\n";
      out << "  },\n";
      out << "  \"host_cores\": " << std::thread::hardware_concurrency()
          << ",\n";
      out << "  \"threads\": 1,\n";
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.1f", cold.throughput_rps);
      out << "  \"cold_miss_rps\": " << buf << ",\n";
      std::snprintf(buf, sizeof(buf), "%.0f", cold.p50_us);
      out << "  \"cold_miss_p50_us\": " << buf << ",\n";
      std::snprintf(buf, sizeof(buf), "%.0f", cold.p99_us);
      out << "  \"cold_miss_p99_us\": " << buf << ",\n";
      std::snprintf(buf, sizeof(buf), "%.1f", hot.throughput_rps);
      out << "  \"cache_hit_rps\": " << buf << ",\n";
      std::snprintf(buf, sizeof(buf), "%.1f", hot.p50_us);
      out << "  \"cache_hit_p50_us\": " << buf << ",\n";
      std::snprintf(buf, sizeof(buf), "%.1f", hot.p99_us);
      out << "  \"cache_hit_p99_us\": " << buf << ",\n";
      std::snprintf(buf, sizeof(buf), "%.1f", ratio);
      out << "  \"hit_over_miss\": " << buf << "\n";
      out << "}\n";
      std::printf("wrote %s\n", out_path.c_str());
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perf_serve: %s\n", e.what());
    return 2;
  }
}
