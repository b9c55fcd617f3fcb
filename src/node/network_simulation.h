// N-node shared-medium network simulation.
//
// Generalises the single sender→receiver experiment to N sender stacks
// contending for one sink over a shared medium (channel/medium.h): CCA
// senses real ongoing transmissions from the other nodes, and overlapping
// frames at the receiver collide (SINR capture or destructive loss). This
// replaces the paper's Sec. VIII-D synthetic "collision factor"
// (SimulationOptions::interferer_duty_cycle) as the default contention
// mechanism — the synthetic interferer remains available as an ablation by
// disabling the shared medium.
//
// The N=1 case is the old single-link simulation, bit for bit:
// RunLinkSimulation delegates here and collapses the result, so every
// existing caller (sweeps, campaigns, examples, goldens) is unchanged.
#pragma once

#include <cstdint>
#include <vector>

#include "channel/medium.h"
#include "node/link_simulation.h"

namespace wsnlink::node {

/// Placement and traffic of one sender in the topology.
struct NodeSpec {
  /// The node's stack configuration; `config.distance_m` is its distance
  /// to the sink.
  core::StackConfig config;
  /// Static spatial shadowing offset of this placement, dB.
  double spatial_shadow_db = 0.0;
  /// Packets this node generates; 0 inherits NetworkOptions::base.
  int packet_count = 0;
};

/// Topology spec: N senders at given distances → one sink.
struct NetworkOptions {
  /// Shared run knobs (seed, MAC kind, arrival process, ablation flags,
  /// tracer, counters). Per-node fields overridden by NodeSpec: config,
  /// spatial_shadow_db, packet_count.
  SimulationOptions base;
  /// One entry per sender; must be non-empty.
  std::vector<NodeSpec> nodes;
  /// Couple the senders through a shared medium (real contention). With
  /// false — or with a single node — every stack keeps a private air and
  /// only the synthetic interferer remains (the paper's approximation).
  bool shared_medium = true;
  /// SINR capture threshold of the shared medium, dB.
  double capture_margin_db = 3.0;
  /// Kept only so existing callers that assign it still compile; the run
  /// is always sequential and any value other than 1 is rejected.
  int sim_threads = 1;
};

/// The N=1 topology equivalent to RunLinkSimulation(options).
[[nodiscard]] NetworkOptions SingleLinkNetwork(const SimulationOptions& options);

/// N identical senders (base's config) at the given sink distances.
[[nodiscard]] NetworkOptions UniformNetwork(
    const SimulationOptions& base, const std::vector<double>& distances_m);

/// Per-node and aggregate outcome of a network run.
struct NetworkResult {
  /// One entry per sender, in NetworkOptions::nodes order. end_time and
  /// events_executed repeat the shared kernel's run envelope.
  std::vector<SimulationResult> nodes;
  sim::Time end_time = 0;
  std::uint64_t events_executed = 0;

  /// Shared-medium activity (all zero when the medium was inactive).
  channel::MediumStats medium;
  bool medium_active = false;

  /// Run-scoped counters (the kernel's sim.* series; empty when counters
  /// are off).
  std::vector<trace::CounterSample> run_counters;
  /// Sum of every node's counters plus run_counters plus (when active) the
  /// medium.* samples; sorted by name. Empty when counters are off.
  std::vector<trace::CounterSample> aggregate_counters;

  // Aggregate tallies over all nodes.
  std::uint64_t generated = 0;         ///< packets offered by all sources
  std::uint64_t delivered_unique = 0;  ///< unique packets decoded at sinks
  std::uint64_t attempts = 0;          ///< data frames radiated
  std::uint64_t acked_packets = 0;     ///< packets finished with an ACK
  std::uint64_t queue_drops = 0;       ///< packets lost at full queues
  std::uint64_t cca_busy = 0;          ///< carrier-sense busy verdicts
  /// Fraction of data-frame attempts the receiver failed to decode.
  double per = 0.0;
  /// End-to-end loss: 1 - delivered_unique / generated.
  double plr_total = 0.0;
};

/// Runs the network to completion. Deterministic in (options): node i's
/// random lineage is root for i=0 (the single-link lineage) and
/// root.Derive("node-i") otherwise, so adding senders never perturbs the
/// streams of existing ones.
[[nodiscard]] NetworkResult RunNetworkSimulation(const NetworkOptions& options);

/// Converts a 1-node NetworkResult into the legacy SimulationResult
/// (merging the node's counters with the run-scoped ones exactly as the
/// pre-refactor single registry reported them). Requires nodes.size() == 1.
[[nodiscard]] SimulationResult CollapseToSingleLink(NetworkResult&& network);

}  // namespace wsnlink::node
