// Microbenchmarks of the library itself (google-benchmark): event-kernel
// throughput, channel sampling, full-stack packet rate, model evaluation
// and optimizer sweep rates. These characterise the *simulator*, not the
// paper's system — they bound how big a campaign is practical.
#include <benchmark/benchmark.h>

#include "channel/channel.h"
#include "core/models/model_set.h"
#include "core/opt/config_space.h"
#include "core/opt/epsilon_constraint.h"
#include "node/link_simulation.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace {

using namespace wsnlink;

void BM_EventKernel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulator simulator;
    for (int i = 0; i < 10'000; ++i) {
      simulator.Schedule(i, [] {});
    }
    benchmark::DoNotOptimize(simulator.Run());
  }
  state.SetItemsProcessed(state.iterations() * 10'000);
}
BENCHMARK(BM_EventKernel);

void BM_ChannelTransmit(benchmark::State& state) {
  channel::ChannelConfig config;
  config.distance_m = 25.0;
  channel::Channel channel(config, util::Rng(1));
  sim::Time t = 0;
  for (auto _ : state) {
    t += 1000;
    benchmark::DoNotOptimize(channel.Transmit(0.0, 129, t));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ChannelTransmit);

void BM_FullStackPackets(benchmark::State& state) {
  node::SimulationOptions options;
  options.config.distance_m = 25.0;
  options.config.pa_level = 19;
  options.config.max_tries = 3;
  options.config.queue_capacity = 10;
  options.config.pkt_interval_ms = 50.0;
  options.config.payload_bytes = 80;
  options.packet_count = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    options.seed = seed++;
    benchmark::DoNotOptimize(node::RunLinkSimulation(options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FullStackPackets)->Arg(500)->Arg(2000);

// The observability contract (docs/TRACING.md): tracing off must be
// near-free. Compare against BM_FullStackPackets — the compiled-in hooks
// (one null-pointer test per emission site) are required to stay within
// ~2% of it. `collect_counters = false` also skips counter registration.
void BM_FullStackPacketsObservabilityOff(benchmark::State& state) {
  node::SimulationOptions options;
  options.config.distance_m = 25.0;
  options.config.pa_level = 19;
  options.config.max_tries = 3;
  options.config.queue_capacity = 10;
  options.config.pkt_interval_ms = 50.0;
  options.config.payload_bytes = 80;
  options.packet_count = static_cast<int>(state.range(0));
  options.collect_counters = false;  // tracer already defaults to null
  std::uint64_t seed = 1;
  for (auto _ : state) {
    options.seed = seed++;
    benchmark::DoNotOptimize(node::RunLinkSimulation(options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FullStackPacketsObservabilityOff)->Arg(500)->Arg(2000);

// Fully instrumented run: counters plus a live tracer. This is the cost a
// debugging session pays, not the default path.
void BM_FullStackPacketsTraced(benchmark::State& state) {
  node::SimulationOptions options;
  options.config.distance_m = 25.0;
  options.config.pa_level = 19;
  options.config.max_tries = 3;
  options.config.queue_capacity = 10;
  options.config.pkt_interval_ms = 50.0;
  options.config.payload_bytes = 80;
  options.packet_count = static_cast<int>(state.range(0));
  std::uint64_t seed = 1;
  for (auto _ : state) {
    trace::Tracer tracer;
    options.tracer = &tracer;
    options.seed = seed++;
    benchmark::DoNotOptimize(node::RunLinkSimulation(options));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FullStackPacketsTraced)->Arg(500)->Arg(2000);

// Raw ring throughput: an Emit is a bounds-computed store plus a counter
// bump, so this should run at memory speed.
void BM_TracerEmit(benchmark::State& state) {
  trace::Tracer tracer;
  trace::TraceEvent event;
  event.type = trace::EventType::kTxAttemptStart;
  event.layer = trace::Layer::kMac;
  for (auto _ : state) {
    event.at += 1;
    tracer.Emit(event);
    benchmark::DoNotOptimize(tracer);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TracerEmit);

void BM_ModelPrediction(benchmark::State& state) {
  const core::models::ModelSet models;
  core::StackConfig config;
  config.distance_m = 30.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(models.Predict(config));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ModelPrediction);

void BM_EpsilonConstraintSweep(benchmark::State& state) {
  const core::models::ModelSet models;
  auto space = core::opt::ConfigSpace::PaperTableI();
  space.distances_m = {25.0};  // one distance: 8064 configs
  core::opt::Problem problem;
  problem.objective = core::opt::Metric::kGoodput;
  problem.constraints.push_back(
      core::opt::AtMost(core::opt::Metric::kEnergy, 0.3));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::opt::SolveEpsilonConstraint(models, space, problem));
  }
  state.SetItemsProcessed(state.iterations() * space.Size());
}
BENCHMARK(BM_EpsilonConstraintSweep);

}  // namespace

BENCHMARK_MAIN();
