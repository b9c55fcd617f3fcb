#include "node/network_simulation.h"

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>

#include "node/node_stack.h"
#include "sim/simulator.h"

namespace wsnlink::node {

NetworkOptions SingleLinkNetwork(const SimulationOptions& options) {
  NetworkOptions network;
  network.base = options;
  NodeSpec spec;
  spec.config = options.config;
  spec.spatial_shadow_db = options.spatial_shadow_db;
  spec.packet_count = options.packet_count;
  network.nodes.push_back(spec);
  return network;
}

NetworkOptions UniformNetwork(const SimulationOptions& base,
                              const std::vector<double>& distances_m) {
  NetworkOptions network;
  network.base = base;
  network.nodes.reserve(distances_m.size());
  for (const double distance : distances_m) {
    NodeSpec spec;
    spec.config = base.config;
    spec.config.distance_m = distance;
    spec.spatial_shadow_db = base.spatial_shadow_db;
    network.nodes.push_back(spec);
  }
  return network;
}

namespace {

// Folds a NodeSpec over the shared base options into the per-node
// SimulationOptions a NodeStack consumes, validating as the single-link
// runner always has.
SimulationOptions ResolveNodeOptions(const NetworkOptions& options,
                                     const NodeSpec& spec) {
  SimulationOptions resolved = options.base;
  resolved.config = spec.config;
  resolved.spatial_shadow_db = spec.spatial_shadow_db;
  if (spec.packet_count < 0) {
    throw std::invalid_argument(
        "RunNetworkSimulation: NodeSpec::packet_count must be >= 0 "
        "(0 inherits the base packet count)");
  }
  if (spec.packet_count > 0) resolved.packet_count = spec.packet_count;
  resolved.config.Validate();
  if (resolved.packet_count < 1) {
    throw std::invalid_argument(
        "RunNetworkSimulation: packet_count must be >= 1");
  }
  // Channel-level consistency (mobility bounds etc.) fails here with the
  // node index still known to the caller, not deep inside the stack build.
  MakeChannelConfig(resolved).Validate();
  return resolved;
}

// Computes the aggregate tallies (PER, PLR, drops, ...) over
// `result.nodes` and, when `collect_counters`, the merged aggregate counter
// snapshot from the per-node counters, `result.run_counters` and the
// medium.* samples.
void FinalizeNetworkAggregates(NetworkResult& result, bool collect_counters) {
  std::uint64_t failed_attempts = 0;
  for (const SimulationResult& node : result.nodes) {
    result.generated += static_cast<std::uint64_t>(node.generated);
    result.delivered_unique += node.unique_delivered;
    result.cca_busy += node.cca_busy;
    result.attempts += node.log.Attempts().size();
    for (const auto& attempt : node.log.Attempts()) {
      if (!attempt.data_received) ++failed_attempts;
    }
    for (const auto& packet : node.log.Packets()) {
      if (packet.dropped_at_queue) ++result.queue_drops;
      if (packet.acked) ++result.acked_packets;
    }
  }
  if (result.attempts > 0) {
    result.per = static_cast<double>(failed_attempts) /
                 static_cast<double>(result.attempts);
  }
  if (result.generated > 0) {
    result.plr_total = 1.0 - static_cast<double>(result.delivered_unique) /
                                 static_cast<double>(result.generated);
  }

  if (collect_counters) {
    std::vector<std::vector<trace::CounterSample>> snapshots;
    snapshots.reserve(result.nodes.size() + 1);
    for (const SimulationResult& node : result.nodes) {
      snapshots.push_back(node.counters);
    }
    snapshots.push_back(result.run_counters);
    result.aggregate_counters = trace::MergeCounters(snapshots);
    if (result.medium_active) {
      trace::AddSample(result.aggregate_counters, "medium.frames",
                       result.medium.frames);
      trace::AddSample(result.aggregate_counters, "medium.busy_hits",
                       result.medium.busy_hits);
      trace::AddSample(result.aggregate_counters, "medium.collisions",
                       result.medium.collisions);
      trace::AddSample(result.aggregate_counters, "medium.captures",
                       result.medium.captures);
    }
  }
}

}  // namespace

NetworkResult RunNetworkSimulation(const NetworkOptions& options) {
  if (options.nodes.empty()) {
    throw std::invalid_argument(
        "RunNetworkSimulation: topology needs at least one node");
  }
  if (options.sim_threads != 1) {
    throw std::invalid_argument(
        "RunNetworkSimulation: sim_threads must be 1 (runs are sequential)");
  }

  sim::Simulator simulator;
  // Lane-structured event keys: same-time events tie-break by (node,
  // per-node sequence) instead of global scheduling order, which fixes the
  // contention output bytes (sim/simulator.h). Oversized topologies
  // (beyond the 16-bit lane space) keep the single-lane keys.
  const bool laned = options.nodes.size() <= sim::Simulator::kMaxLanes;
  if (laned) {
    simulator.ConfigureLanes(static_cast<std::uint32_t>(options.nodes.size()));
  }

  // The medium only exists when two or more senders can actually contend:
  // a single node with a medium would pay the bookkeeping, drive the MAC
  // one event per ladder step and gain nothing — and N=1 must stay
  // bit-identical to the single-link simulation.
  std::optional<channel::Medium> medium;
  if (options.shared_medium && options.nodes.size() > 1) {
    medium.emplace(options.capture_margin_db);
  }

  const util::Rng root(options.base.seed);
  std::vector<std::unique_ptr<NodeStack>> stacks;
  stacks.reserve(options.nodes.size());
  for (std::size_t i = 0; i < options.nodes.size(); ++i) {
    // Node 0 keeps the single-link lineage; later nodes branch off it, so
    // growing the topology never disturbs the streams of existing nodes.
    const util::Rng node_root =
        i == 0 ? root : root.Derive("node-" + std::to_string(i));
    stacks.push_back(std::make_unique<NodeStack>(
        simulator, ResolveNodeOptions(options, options.nodes[i]),
        node_root, medium ? &*medium : nullptr, static_cast<int>(i)));
  }

  // Observability: the kernel's counters are run-scoped (one simulator
  // serves every node); each stack attaches its own registry and stamps
  // its node id into the shared tracer's events.
  trace::CounterRegistry run_registry;
  trace::TraceContext run_ctx;
  run_ctx.tracer = options.base.tracer;
  run_ctx.counters = options.base.collect_counters ? &run_registry : nullptr;
  if (run_ctx.Active()) simulator.AttachTrace(run_ctx);
  for (auto& stack : stacks) {
    stack->AttachTrace(options.base.tracer, options.base.collect_counters);
  }

  for (std::size_t i = 0; i < stacks.size(); ++i) {
    if (laned) simulator.SetCurrentLane(static_cast<std::uint32_t>(i));
    stacks[i]->Start();
  }
  simulator.Run();

  NetworkResult result;
  result.end_time = simulator.Now();
  result.events_executed = simulator.EventsExecuted();
  result.nodes.reserve(stacks.size());
  for (auto& stack : stacks) {
    result.nodes.push_back(
        stack->Harvest(result.end_time, result.events_executed));
  }
  if (medium) {
    result.medium = medium->Stats();
    result.medium_active = true;
  }

  if (options.base.collect_counters) {
    result.run_counters = run_registry.Snapshot();
  }
  FinalizeNetworkAggregates(result, options.base.collect_counters);
  return result;
}

SimulationResult CollapseToSingleLink(NetworkResult&& network) {
  if (network.nodes.size() != 1) {
    throw std::invalid_argument(
        "CollapseToSingleLink: expected exactly one node, got " +
        std::to_string(network.nodes.size()));
  }
  SimulationResult result = std::move(network.nodes.front());
  // The pre-refactor runner kept one registry for the whole run; merging
  // the node-scoped and run-scoped snapshots (disjoint name sets, both
  // sorted) reproduces that single snapshot byte for byte.
  if (!result.counters.empty() || !network.run_counters.empty()) {
    result.counters =
        trace::MergeCounters({result.counters, network.run_counters});
  }
  return result;
}

}  // namespace wsnlink::node
