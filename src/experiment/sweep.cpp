#include "experiment/sweep.h"

#include <algorithm>
#include <atomic>
#include <optional>
#include <stdexcept>
#include <vector>

#include "node/run_scratch.h"
#include "util/fault_injection.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace wsnlink::experiment {

std::uint64_t SweepSeed(std::uint64_t base_seed, std::size_t index) noexcept {
  std::uint64_t sm = base_seed ^ (0x9E3779B97F4A7C15ULL * (index + 1));
  return util::SplitMix64(sm);
}

std::size_t SweepChunkSize(const SweepOptions& options,
                           std::size_t total) noexcept {
  if (options.chunk != 0) return options.chunk;
  const unsigned pool_width = util::ThreadPool::Shared().WorkerCount() + 1;
  const unsigned width =
      options.threads == 0 ? pool_width : std::min(options.threads, pool_width);
  // ~16 grabs per active worker amortises the cursor; cap so progress
  // callbacks and stealing stay responsive on big sweeps.
  const std::size_t chunk = total / (static_cast<std::size_t>(width) * 16);
  return std::clamp<std::size_t>(chunk, 1, 64);
}

namespace {

node::SimulationOptions MakeOptions(const core::StackConfig& config,
                                    const SweepOptions& sweep,
                                    std::size_t index) {
  node::SimulationOptions options;
  options.config = config;
  options.seed = SweepSeed(sweep.base_seed, index);
  options.packet_count = sweep.packet_count;
  options.analytic_ber = sweep.analytic_ber;
  options.disable_temporal_shadowing = sweep.disable_temporal_shadowing;
  options.disable_interference = sweep.disable_interference;
  options.collect_counters = sweep.collect_counters;
  return options;
}

/// Per-worker recycled simulation state. Pool workers persist across
/// sweeps, so after the first few runs warm the capacities up, a worker's
/// runs stop allocating. (ParallelFor has the caller participate too, so
/// the main thread gets its own scratch the same way.)
node::LinkRunScratch& WorkerScratch() {
  // wsnstatic:allow(lp-isolation): thread_local scratch is per-worker by construction; no state crosses worker threads
  thread_local node::LinkRunScratch scratch;
  return scratch;
}

/// Runs `fn(i)` for every i in [0, total) over the shared pool.
void SweepParallelFor(std::size_t total, const SweepOptions& options,
                      const std::function<void(std::size_t)>& fn) {
  util::ThreadPool::Shared().ParallelFor(total, SweepChunkSize(options, total),
                                         options.threads, fn);
}

}  // namespace

std::vector<SweepPoint> RunSweep(const std::vector<core::StackConfig>& configs,
                                 const SweepOptions& options) {
  std::vector<SweepPoint> points(configs.size());
  if (!options.skip.empty() && options.skip.size() != configs.size()) {
    throw std::invalid_argument("RunSweep: skip mask size != config count");
  }

  std::atomic<std::size_t> done{0};
  SweepParallelFor(configs.size(), options, [&](std::size_t i) {
    if (!options.skip.empty() && options.skip[i]) {
      // Resumed-from-checkpoint index: the caller fills the point; the
      // sweep only keeps the slot aligned and the progress count honest.
      points[i].config = configs[i];
      if (options.progress) {
        options.progress(done.fetch_add(1) + 1, configs.size());
      }
      return;
    }
    if (options.cancel && options.cancel()) return;
    // Graceful degradation: a worker that throws (simulation bug, injected
    // fault, bad config) marks *this* point failed instead of taking the
    // whole campaign down with it.
    try {
      if (util::FaultInjector::Global().Armed()) {
        util::FaultInjector::Global().MaybeThrow("sweep.worker");
      }
      auto sim_options = MakeOptions(configs[i], options, i);
      // Trace capture allocates by design (the event log escapes). Per-run
      // tracer: runs never share observability state, which is what keeps
      // captured traces identical across thread counts.
      std::optional<trace::Tracer> tracer;
      if (options.capture_traces) {
        sim_options.tracer = &tracer.emplace(options.trace_capacity);
      }
      // Every growable resource comes from the worker's recycled scratch;
      // results do not depend on what the scratch ran before.
      node::LinkRunScratch& scratch = WorkerScratch();
      auto result = node::RunLinkSimulation(sim_options, scratch);
      points[i].config = configs[i];
      points[i].measured = metrics::ComputeMetrics(
          result, configs[i].pkt_interval_ms, scratch.delay_buf);
      points[i].mean_snr_db = result.mean_snr_db;
      points[i].counters = std::move(result.counters);
      if (tracer) points[i].events = tracer->Events();
      // Hand the log's heap blocks back for the next run.
      result.log.ExtractStorage(scratch.packet_buf, scratch.attempt_buf);
    } catch (const std::exception& e) {
      points[i] = SweepPoint{};
      points[i].config = configs[i];
      points[i].failed = true;
      points[i].error = e.what();
    } catch (...) {
      points[i] = SweepPoint{};
      points[i].config = configs[i];
      points[i].failed = true;
      points[i].error = "unknown error";
    }
    if (options.on_point) options.on_point(i, points[i]);
    if (options.progress) {
      options.progress(done.fetch_add(1) + 1, configs.size());
    }
  });
  return points;
}

std::vector<node::SimulationResult> RunSweepRaw(
    const std::vector<core::StackConfig>& configs,
    const SweepOptions& options) {
  std::vector<node::SimulationResult> results(configs.size());
  std::atomic<std::size_t> done{0};
  SweepParallelFor(configs.size(), options, [&](std::size_t i) {
    const auto sim_options = MakeOptions(configs[i], options, i);
    results[i] = node::RunLinkSimulation(sim_options, WorkerScratch());
    if (options.progress) {
      options.progress(done.fetch_add(1) + 1, configs.size());
    }
  });
  return results;
}

}  // namespace wsnlink::experiment
