#include "experiment/contention.h"

#include <cstdio>
#include <stdexcept>

#include "experiment/sweep.h"
#include "util/thread_pool.h"

namespace wsnlink::experiment {

namespace {

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

std::vector<ContentionPoint> RunContentionSweep(
    const ContentionOptions& options) {
  if (options.node_counts.empty()) {
    throw std::invalid_argument("RunContentionSweep: empty node-count ladder");
  }
  for (const int n : options.node_counts) {
    if (n < 1) {
      throw std::invalid_argument(
          "RunContentionSweep: node counts must be >= 1");
    }
  }
  if (options.sim_threads != 1) {
    throw std::invalid_argument(
        "RunContentionSweep: sim_threads must be 1 (runs are sequential)");
  }

  std::vector<ContentionPoint> points(options.node_counts.size());
  // Chunk size 1: a rung is a whole network run, orders of magnitude
  // heavier than the dispatch cursor it amortises.
  util::ThreadPool::Shared().ParallelFor(
      points.size(), 1, options.threads, [&](std::size_t i) {
        node::SimulationOptions base;
        base.config = options.config;
        base.mac = options.mac;
        base.lpl_wakeup_interval_ms = options.lpl_wakeup_interval_ms;
        base.seed = SweepSeed(options.base_seed, i);
        base.packet_count = options.packet_count;
        base.disable_interference = options.disable_interference;
        base.interferer_duty_cycle = options.interferer_duty_cycle;

        node::NetworkOptions network;
        network.base = base;
        network.shared_medium = options.shared_medium;
        network.capture_margin_db = options.capture_margin_db;
        const int count = options.node_counts[i];
        network.nodes.reserve(static_cast<std::size_t>(count));
        for (int n = 0; n < count; ++n) {
          node::NodeSpec spec;
          spec.config = options.config;
          spec.config.distance_m =
              options.config.distance_m + n * options.node_spacing_m;
          network.nodes.push_back(spec);
        }

        points[i].nodes = count;
        points[i].seed = base.seed;
        points[i].result = node::RunNetworkSimulation(network);
      });
  return points;
}

std::string ContentionCsvHeader() {
  return "nodes,generated,delivered_unique,attempts,acked_packets,per,"
         "plr_total,queue_drops,cca_busy,medium_frames,medium_busy_hits,"
         "medium_collisions,medium_captures";
}

std::string SerializeContentionRow(const ContentionPoint& point) {
  const node::NetworkResult& r = point.result;
  std::string row;
  row += std::to_string(point.nodes);
  row += ',';
  row += std::to_string(r.generated);
  row += ',';
  row += std::to_string(r.delivered_unique);
  row += ',';
  row += std::to_string(r.attempts);
  row += ',';
  row += std::to_string(r.acked_packets);
  row += ',';
  row += FormatDouble(r.per);
  row += ',';
  row += FormatDouble(r.plr_total);
  row += ',';
  row += std::to_string(r.queue_drops);
  row += ',';
  row += std::to_string(r.cca_busy);
  row += ',';
  row += std::to_string(r.medium.frames);
  row += ',';
  row += std::to_string(r.medium.busy_hits);
  row += ',';
  row += std::to_string(r.medium.collisions);
  row += ',';
  row += std::to_string(r.medium.captures);
  return row;
}

}  // namespace wsnlink::experiment
