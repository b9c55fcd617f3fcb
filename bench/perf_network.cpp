// Macro-benchmark for sequential network scaling.
//
// Runs contended uniform topologies at a ladder of node counts on the
// sequential kernel and reports generated node-packets/sec per rung, with
// the events each rung took. A taller lane tree, a busier medium and more
// contenders make every packet dearer as N grows, so this is the
// N-scaling curve of the event kernel, the medium and the event-path MAC
// together. The unit of
// work is the node-packet, not the event: the MAC's event driver runs
// CCAs the medium already proves busy inside an earlier event, so events
// per packet vary by design. The run is single-threaded by construction;
// the JSON records `host_cores` and `threads: 1` so figures from
// different hosts are never mistaken for a scaling claim.
//
// bench/perf_gate.py compares the largest rung's node-packets/sec with
// the parent commit's binary on the same runner (the CI perf-smoke gate).
//
// Usage:
//   perf_network [--out BENCH_network.json] [--nodes 64,256,1024]
//                [--packets 15] [--repeat 1]
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "node/network_simulation.h"
#include "util/args.h"

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::vector<int> ParseIntList(const std::string& list, const char* flag) {
  std::vector<int> out;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    const std::size_t comma = list.find(',', begin);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    out.push_back(
        wsnlink::util::ParsePositiveInt(list.substr(begin, end - begin), flag));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return out;
}

wsnlink::node::NetworkOptions Topology(int nodes, int packets) {
  wsnlink::node::SimulationOptions base;
  base.config.distance_m = 20.0;
  base.config.pkt_interval_ms = 25.0;
  base.seed = 20150629;
  base.packet_count = packets;
  // Pure emergent contention: every CCA hit and collision comes from the
  // contenders, as in the contention study.
  base.disable_interference = true;
  base.interferer_duty_cycle = 0.0;
  return wsnlink::node::UniformNetwork(
      base, std::vector<double>(static_cast<std::size_t>(nodes), 20.0));
}

struct Rung {
  int nodes = 0;
  std::uint64_t node_packets = 0;  // packets generated by all nodes
  std::uint64_t events = 0;
  double node_packets_per_sec = 0.0;
};

void WriteJson(const std::string& path, const std::vector<Rung>& rungs,
               int packets, unsigned host_cores) {
  std::ofstream out(path);
  char buf[64];
  out << "{\n";
  out << "  \"schema\": \"wsnlink-bench-v1\",\n";
  out << "  \"workload\": {\n    \"nodes\": [";
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    out << (i ? "," : "") << rungs[i].nodes;
  }
  out << "],\n    \"packets_per_node\": " << packets
      << ",\n    \"base_seed\": 20150629\n  },\n";
  out << "  \"host_cores\": " << host_cores << ",\n";
  out << "  \"threads\": 1,\n";
  out << "  \"rungs\": [\n";
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.0f", rungs[i].node_packets_per_sec);
    out << "    {\"nodes\": " << rungs[i].nodes
        << ", \"node_packets\": " << rungs[i].node_packets
        << ", \"events\": " << rungs[i].events
        << ", \"node_packets_per_sec\": " << buf << "}"
        << (i + 1 < rungs.size() ? "," : "") << "\n";
  }
  out << "  ]\n";
  out << "}\n";
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace wsnlink;

  const util::Args args(argc, argv,
                        {"--nodes", "--packets", "--repeat", "--out"}, {});
  const auto node_list = ParseIntList(args.GetString("--nodes", "64,256,1024"),
                                      "--nodes");
  const int packets = args.GetPositiveInt("--packets", 15);
  const auto repeat = args.GetSize("--repeat", 1);
  const std::string out_path = args.GetString("--out", "");
  const unsigned host_cores = std::thread::hardware_concurrency();

  std::printf("perf_network: %zu node rungs, %d packets/node, threads=1, "
              "host_cores=%u\n",
              node_list.size(), packets, host_cores);

  std::vector<Rung> rungs;
  for (const int nodes : node_list) {
    Rung rung;
    rung.nodes = nodes;
    // Untimed warm-up: the first run of a rung pays for page faults and
    // allocator growth that the timed repeats should not see.
    (void)node::RunNetworkSimulation(Topology(nodes, packets));
    double best = 1e300;
    for (std::size_t r = 0; r < repeat; ++r) {
      const auto options = Topology(nodes, packets);
      const auto t0 = Clock::now();
      const auto result = node::RunNetworkSimulation(options);
      const auto t1 = Clock::now();
      const double elapsed = Seconds(t0, t1);
      if (elapsed < best) {
        best = elapsed;
        rung.node_packets = result.generated;
        rung.events = result.events_executed;
      }
    }
    rung.node_packets_per_sec = static_cast<double>(rung.node_packets) / best;
    std::printf("  nodes=%5d  %10.0f node-packets/sec  %8llu events\n", nodes,
                rung.node_packets_per_sec,
                static_cast<unsigned long long>(rung.events));
    rungs.push_back(rung);
  }

  if (!out_path.empty()) {
    WriteJson(out_path, rungs, packets, host_cores);
    std::printf("wrote %s\n", out_path.c_str());
  }
  return 0;
} catch (const std::exception& e) {
  std::fprintf(stderr, "perf_network: %s\n", e.what());
  return 2;
}
