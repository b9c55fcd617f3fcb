// Contention-scaling sweep: node count as an experiment axis.
//
// The paper's experiment grid sweeps PHY/MAC/app knobs on one link; the
// multi-node refactor (node/network_simulation.h) opens the axis the paper
// approximates with its Sec. VIII-D collision factor — how many senders
// contend for the medium. A contention sweep runs the same stack
// configuration at a ladder of node counts and reports per-rung aggregate
// behaviour (PER, loss, queue drops, carrier-sense pressure, collisions),
// which is what validates the synthetic interferer approximation against
// emergent contention.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/stack_config.h"
#include "node/network_simulation.h"

namespace wsnlink::experiment {

/// One contention sweep: a node-count ladder over a fixed configuration.
struct ContentionOptions {
  /// Stack configuration of every sender (distance_m = the first node's
  /// sink distance).
  core::StackConfig config;
  /// The ladder: one network run per entry. Entries must be >= 1.
  std::vector<int> node_counts = {1, 2, 4};
  /// Rung i runs with seed SweepSeed(base_seed, i), so a ladder point is
  /// reproducible in isolation.
  std::uint64_t base_seed = 1;
  /// Packets per node.
  int packet_count = 200;
  node::MacKind mac = node::MacKind::kCsma;
  double lpl_wakeup_interval_ms = 100.0;
  /// Extra sink distance per additional node (node i sits at
  /// distance_m + i * node_spacing_m). 0 = co-located ring.
  double node_spacing_m = 0.0;
  /// Real contention (shared medium) vs the paper's synthetic collision
  /// factor (ablation: shared_medium=false + interferer_duty_cycle>0).
  bool shared_medium = true;
  double capture_margin_db = 3.0;
  double interferer_duty_cycle = 0.0;
  /// Quieten the ambient interference bursts so carrier-sense pressure is
  /// attributable to the contenders alone (on for the contention study).
  bool disable_interference = true;
  /// Upper bound on concurrent rungs; 0 = the shared pool's full width.
  unsigned threads = 0;
  /// Kept only so existing callers that assign it still compile; every
  /// network run is sequential and any value other than 1 is rejected.
  int sim_threads = 1;
};

/// One ladder rung.
struct ContentionPoint {
  int nodes = 0;
  std::uint64_t seed = 0;
  node::NetworkResult result;
};

/// Runs the ladder over the shared pool. Deterministic in (options)
/// regardless of worker count: rung i always runs seed
/// SweepSeed(base_seed, i) and lands in slot i.
[[nodiscard]] std::vector<ContentionPoint> RunContentionSweep(
    const ContentionOptions& options);

/// CSV header for SerializeContentionRow.
[[nodiscard]] std::string ContentionCsvHeader();

/// One rung as a locale-independent CSV row (no trailing newline).
[[nodiscard]] std::string SerializeContentionRow(const ContentionPoint& point);

}  // namespace wsnlink::experiment
