// One sender stack of a (possibly multi-node) simulation.
//
// Channel (from the config's distance), MAC (CSMA or LPL), link layer with
// its bounded queue, traffic source and per-node sink, all driven by a shared
// discrete-event kernel. Each stack derives a private RNG lineage from its
// root and counts into its own scratch's registry, so N stacks on one
// simulator stay independent everywhere except the air they share
// (channel::Medium).
#pragma once

#include <cstdint>
#include <optional>

#include "app/sink.h"
#include "app/traffic_gen.h"
#include "channel/channel.h"
#include "channel/medium.h"
#include "link/link_layer.h"
#include "mac/csma_mac.h"
#include "mac/lpl_mac.h"
#include "mac/mac.h"
#include "node/link_simulation.h"
#include "node/run_scratch.h"
#include "sim/simulator.h"
#include "trace/counters.h"
#include "util/rng.h"

namespace wsnlink::node {

/// A fully wired sender→sink stack on a shared simulator.
class NodeStack {
 public:
  /// Channel, MAC and traffic source derive their streams from `root` with
  /// the labels "channel", "mac" and "traffic", so a stack built from the
  /// run's root RNG reproduces the single-link run bit for bit. `medium`
  /// may be null (uncontended); when set, the channel joins it as
  /// `node_id`. `options` must already be validated (ResolveNodeOptions).
  /// The stack borrows its counter registry and every growable buffer
  /// (packet/attempt logs, reception log) from `scratch`.
  /// `simulator`, `medium` and `scratch` must outlive the stack.
  NodeStack(sim::Simulator& simulator, const SimulationOptions& options,
            util::Rng root, channel::Medium* medium, int node_id,
            NodeScratch& scratch);

  NodeStack(const NodeStack&) = delete;
  NodeStack& operator=(const NodeStack&) = delete;

  /// Attaches the run's tracer and (when `collect_counters`) the scratch's
  /// registry to every layer, stamping events with the node id. Call
  /// before Start().
  void AttachTrace(trace::Tracer* tracer, bool collect_counters);

  /// Schedules the traffic source's first packet.
  void Start();

  /// Extracts this node's results after the simulator has run. Moves the
  /// packet log out; call once. `end_time`/`events_executed` are the shared
  /// kernel's values (every node reports the same run envelope). The
  /// counters are one snapshot of the scratch's registry, which also holds
  /// the kernel's "sim.*" counters when the runner attached them there.
  [[nodiscard]] SimulationResult Harvest(sim::Time end_time,
                                         std::uint64_t events_executed);

 private:
  mac::Mac& BuildMac(sim::Simulator& simulator,
                     const SimulationOptions& options, const util::Rng& root);

  // The parts in dependency order: each constructor borrows only parts
  // declared above it, and members are destroyed in reverse.
  int node_id_;
  int pa_level_;
  trace::CounterRegistry& registry_;
  channel::Channel channel_;
  std::optional<mac::CsmaMac> csma_;
  std::optional<mac::LplMac> lpl_;
  mac::Mac& mac_;  // whichever of csma_ / lpl_ is engaged
  link::LinkLayer link_;
  app::PacketSink sink_;
  app::TrafficGenerator generator_;
  bool collect_counters_ = false;
};

}  // namespace wsnlink::node
