// One sender stack of a (possibly multi-node) simulation.
//
// Extracted from the inline assembly that RunLinkSimulation used to do for
// exactly one link: channel (from the config's distance), MAC (CSMA or
// LPL), bounded queue + link layer, traffic source and per-node sink, all
// driven by a shared discrete-event kernel. Each stack owns a private RNG
// lineage and counter registry, so N stacks on one simulator stay
// independent everywhere except the air they share (channel::Medium).
#pragma once

#include <cstdint>

#include "app/sink.h"
#include "app/traffic_gen.h"
#include "channel/channel.h"
#include "channel/medium.h"
#include "link/link_layer.h"
#include "mac/mac.h"
#include "node/link_simulation.h"
#include "node/run_scratch.h"
#include "sim/simulator.h"
#include "trace/counters.h"
#include "util/arena.h"
#include "util/rng.h"

namespace wsnlink::node {

/// A fully wired sender→sink stack on a shared simulator.
class NodeStack {
 public:
  /// Builds the stack exactly as the single-link simulation does: channel,
  /// MAC, link queue and traffic source derive their streams from `root`
  /// with the historical labels, so a stack built from the run's root RNG
  /// reproduces the pre-refactor run bit for bit. `medium` may be null
  /// (uncontended); when set, the channel joins it as `node_id`.
  /// `options` must already be validated; `simulator` and `medium` must
  /// outlive the stack.
  ///
  /// `scratch` (optional) switches the stack into recycled-storage mode:
  /// components are placed in the scratch arena and every growable buffer
  /// (queue ring, packet/attempt logs, sink state) reuses the scratch
  /// vectors' warm heap blocks. The scratch's simulator must be `simulator`
  /// and BeginRun() must have been called. Simulation behaviour and results
  /// are bit-identical to the default mode.
  NodeStack(sim::Simulator& simulator, const SimulationOptions& options,
            util::Rng root, channel::Medium* medium, int node_id,
            LinkRunScratch* scratch = nullptr);

  NodeStack(const NodeStack&) = delete;
  NodeStack& operator=(const NodeStack&) = delete;

  /// Attaches the run's tracer and (when `collect_counters`) this node's
  /// private registry to every layer, stamping events with the node id.
  /// Call before Start().
  void AttachTrace(trace::Tracer* tracer, bool collect_counters);

  /// Folds the run-level registry (kernel "sim.*" counters) into this
  /// node's Harvest() snapshot via a single-allocation merge-join — the
  /// scratch path's equivalent of the campaign-side MergeCounters roll-up.
  /// Leave unset when the caller merges run counters itself.
  void SetRunRegistry(const trace::CounterRegistry* run_registry) noexcept {
    run_registry_ = run_registry;
  }

  /// Schedules the traffic source's first packet.
  void Start();

  /// Extracts this node's results after the simulator has run. Moves the
  /// packet log out; call once. `end_time`/`events_executed` are the shared
  /// kernel's values (every node reports the same run envelope).
  [[nodiscard]] SimulationResult Harvest(sim::Time end_time,
                                         std::uint64_t events_executed);

 private:
  SimulationOptions options_;
  int node_id_;
  // Both BER models are cheap value members; the channel borrows whichever
  // the options select (no per-stack model allocation either way).
  channel::AnalyticOQpskBer analytic_ber_;
  channel::CalibratedExponentialBer calibrated_ber_;
  // Components live in an arena: the stack's own in default mode, the
  // caller's recycled one in scratch mode. The arena destroys them in
  // reverse construction order (generator → link → mac → channel), which
  // respects their reference dependencies.
  util::MonotonicArena own_arena_;
  util::MonotonicArena* arena_;
  channel::Channel* channel_ = nullptr;
  mac::Mac* mac_ = nullptr;
  link::LinkLayer* link_ = nullptr;
  app::PacketSink sink_;
  app::TrafficGenerator* generator_ = nullptr;
  trace::CounterRegistry own_registry_;
  trace::CounterRegistry* registry_;  // &own_registry_ or scratch's
  const trace::CounterRegistry* run_registry_ = nullptr;
  bool collect_counters_ = false;
  double receiver_idle_duty_ = 1.0;
};

}  // namespace wsnlink::node
