#include "node/link_simulation.h"

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
  LinkRunScratch scratch;
  return RunLinkSimulation(options, scratch);
}

SimulationResult RunLinkSimulation(const SimulationOptions& options,
                                   LinkRunScratch& scratch) {
  const SimulationOptions resolved = ResolveNodeOptions(
      options, {options.config, options.spatial_shadow_db,
                options.packet_count});

  // Rewind whatever the previous run left, including a run that threw.
  scratch.simulator.Reset();
  scratch.registry.BeginRun();
  // N=1 never joins a shared medium (the network path only builds one for
  // shared_medium && nodes > 1), so the MAC runs its ladder inline.
  NodeStack stack(scratch.simulator, resolved, util::Rng(resolved.seed),
                  nullptr, 0, scratch);

  // The kernel counts into the node's registry: its "sim.*" names are
  // disjoint from the layers', so the one snapshot Harvest takes is the
  // whole run's.
  trace::TraceContext run_ctx;
  run_ctx.tracer = options.tracer;
  run_ctx.counters = options.collect_counters ? &scratch.registry : nullptr;
  if (run_ctx.Active()) scratch.simulator.AttachTrace(run_ctx);

  stack.AttachTrace(options.tracer, options.collect_counters);
  stack.Start();
  scratch.simulator.Run();
  return stack.Harvest(scratch.simulator.Now(),
                       scratch.simulator.EventsExecuted());
}

}  // namespace wsnlink::node
