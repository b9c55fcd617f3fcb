// Microbenchmarks of the library itself (google-benchmark): event-kernel
// throughput, channel sampling, full-stack packet rate, model evaluation,
// optimizer sweep rates and the wsnlinkd warm start. These characterise
// the *simulator*, not the paper's system — they bound how big a campaign
// is practical.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "channel/channel.h"
#include "core/models/model_set.h"
#include "core/opt/config_space.h"
#include "core/opt/epsilon_constraint.h"
#include "experiment/journal.h"
#include "node/link_simulation.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"
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

// The kernel at contention depth: one lane per node, each holding two
// pending events as a contended network run's nodes do (the MAC's next step
// and the next packet). Every event reschedules itself in its own lane at a
// seeded delay, ties included, until the run's budget is spent.
void BM_EventKernelLanes(benchmark::State& state) {
  const auto lanes = static_cast<std::uint32_t>(state.range(0));
  constexpr std::int64_t kEvents = 200'000;
  std::vector<sim::Duration> delays(4'096);
  util::Rng rng(7);
  for (sim::Duration& delay : delays) delay = rng.UniformInt(0, 4'000);

  struct Run {
    sim::Simulator* simulator;
    const std::vector<sim::Duration>* delays;
    std::size_t next = 0;
    std::int64_t remaining = 0;
  };
  struct Hop {
    Run* run;
    void operator()() const {
      if (run->remaining-- <= 0) return;
      const auto& delays = *run->delays;
      run->simulator->Schedule(delays[run->next++ % delays.size()], Hop{run});
    }
  };

  sim::Simulator simulator;
  for (auto _ : state) {
    simulator.Reset();
    simulator.ConfigureLanes(lanes);
    Run run{&simulator, &delays, 0, kEvents - 2 * std::int64_t{lanes}};
    for (std::uint32_t lane = 0; lane < lanes; ++lane) {
      simulator.SetCurrentLane(lane);
      for (int k = 0; k < 2; ++k) {
        simulator.Schedule(delays[run.next++ % delays.size()], Hop{&run});
      }
    }
    benchmark::DoNotOptimize(simulator.Run());
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
}
BENCHMARK(BM_EventKernelLanes)->Arg(512);

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

// A compacted cache file shaped like perfbench's serve warm cache: 2,000
// `what_if` records of about 585 bytes (a ~110-byte key and a ~450-byte
// reply), about 1.17 MB in key order. Written once per process and
// removed at exit.
struct WarmCache {
  WarmCache()
      : path((std::filesystem::temp_directory_path() /
              ("perf_micro_warm_" + std::to_string(::getpid()) + ".cache"))
                 .string()) {
    serve::ResultCache cache{std::string(serve::kServeVersionTag)};
    util::Rng rng(2015);
    for (int i = 0; i < 2'000; ++i) {
      std::string key = "what_if";
      for (const char* field : {"d", "pa", "mt", "rd", "qc", "ti", "pb"}) {
        key += std::string("|") + field + "=" +
               std::to_string(rng.UniformInt(0, 200));
      }
      key += "|mac=csma|lw=100|seed=" +
             std::to_string(rng.UniformInt(100'000'000, 999'999'999)) +
             "|pk=120|tag=" + std::string(serve::kServeVersionTag);
      std::string reply = "{\"status\":\"ok\",\"verb\":\"what_if\"";
      for (const char* field :
           {"plr_radio", "plr_total", "goodput_kbps", "energy_uj_per_bit",
            "mean_delay_ms", "delay_p50_ms", "delay_p99_ms", "delay_max_ms",
            "utilization", "mean_snr_db", "mean_tries", "per",
            "duration_s"}) {
        reply += std::string(",\"") + field +
                 "\":" + serve::FormatDouble(rng.Uniform(0.0, 100.0));
      }
      reply += '}';
      cache.Store(key, reply);
    }
    cache.Save(path);
  }
  ~WarmCache() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  WarmCache(const WarmCache&) = delete;
  WarmCache& operator=(const WarmCache&) = delete;

  std::string path;
};

const std::string& WarmCacheFile() {
  static const WarmCache cache;
  return cache.path;
}

// Splitting and verifying the warm cache's records (the checksum of every
// byte), as a warm start and a campaign resume do.
void BM_JournalScan(benchmark::State& state) {
  const std::string contents = *experiment::ReadJournalFile(WarmCacheFile());
  for (auto _ : state) {
    benchmark::DoNotOptimize(experiment::ScanJournal(contents));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(contents.size()));
}
BENCHMARK(BM_JournalScan);

// A whole warm start of the result cache: read, scan, map build and FIFO.
void BM_CacheWarmLoad(benchmark::State& state) {
  const std::string& path = WarmCacheFile();
  for (auto _ : state) {
    serve::ResultCache cache{std::string(serve::kServeVersionTag)};
    benchmark::DoNotOptimize(cache.Load(path));
  }
  state.SetBytesProcessed(
      state.iterations() *
      static_cast<std::int64_t>(std::filesystem::file_size(path)));
}
BENCHMARK(BM_CacheWarmLoad);

}  // namespace

BENCHMARK_MAIN();
