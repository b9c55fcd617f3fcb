#include "node/link_simulation.h"

#include <stdexcept>

#include "node/network_simulation.h"
#include "node/node_stack.h"
#include "node/run_scratch.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace wsnlink::node {

channel::ChannelConfig MakeChannelConfig(const SimulationOptions& options) {
  channel::ChannelConfig config;
  config.distance_m = options.config.distance_m;
  config.spatial_shadow_db = options.spatial_shadow_db;
  if (options.disable_temporal_shadowing) {
    config.use_default_temporal_sigma = false;
    config.shadowing.sigma_db = 0.0;
  }
  if (options.disable_interference) {
    config.noise.burst_rate_hz = 0.0;
  }
  config.interferer.duty_cycle = options.interferer_duty_cycle;
  config.interferer.rx_power_dbm = options.interferer_power_dbm;
  config.mobility.speed_mps = options.mobility_speed_mps;
  config.mobility.min_distance_m = options.mobility_min_m;
  config.mobility.max_distance_m = options.mobility_max_m;
  // Reject inconsistent placements (mobility bounds, distances) here, with
  // the options still in hand, instead of simulating nonsense.
  config.Validate();
  return config;
}

SimulationResult RunLinkSimulation(const SimulationOptions& options) {
  // The single link is the N=1 network: one stack, no shared medium. The
  // collapse merges the node- and run-scoped counters back into the single
  // snapshot this function has always returned — bit-identical to the
  // pre-refactor inline assembly.
  return CollapseToSingleLink(RunNetworkSimulation(SingleLinkNetwork(options)));
}

SimulationResult RunLinkSimulation(const SimulationOptions& options,
                                   LinkRunScratch& scratch) {
  // Same validation, in the same order and with the same messages, as the
  // N=1 network path above (ResolveNodeOptions) — callers must not be able
  // to tell the two overloads apart.
  if (options.packet_count < 0) {
    throw std::invalid_argument(
        "RunNetworkSimulation: NodeSpec::packet_count must be >= 0 "
        "(0 inherits the base packet count)");
  }
  options.config.Validate();
  if (options.packet_count < 1) {
    throw std::invalid_argument(
        "RunNetworkSimulation: packet_count must be >= 1");
  }
  MakeChannelConfig(options).Validate();

  scratch.BeginRun();
  const util::Rng root(options.seed);
  // N=1 never joins a shared medium (the generic path only builds one for
  // shared_medium && nodes > 1), so the MAC runs its ladder inline.
  NodeStack stack(scratch.simulator, options, root, nullptr, 0, &scratch);

  trace::TraceContext run_ctx;
  run_ctx.tracer = options.tracer;
  run_ctx.counters = options.collect_counters ? &scratch.run_registry : nullptr;
  if (run_ctx.Active()) scratch.simulator.AttachTrace(run_ctx);
  if (options.collect_counters) stack.SetRunRegistry(&scratch.run_registry);

  stack.AttachTrace(options.tracer, options.collect_counters);
  stack.Start();
  scratch.simulator.Run();
  return stack.Harvest(scratch.simulator.Now(),
                       scratch.simulator.EventsExecuted());
}

}  // namespace wsnlink::node
