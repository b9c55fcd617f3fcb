#include "experiment/sweep.h"

#include <atomic>
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

namespace {

/// Per-worker recycled simulation state. Pool workers persist across
/// sweeps, so after the first few runs warm the capacities up, a worker's
/// runs stop allocating. (ParallelFor has the caller participate too, so
/// the main thread gets its own scratch the same way.)
node::LinkRunScratch& WorkerScratch() {
  // wsnstatic:allow(lp-isolation): thread_local scratch is per-worker by construction; no state crosses worker threads
  thread_local node::LinkRunScratch scratch;
  return scratch;
}

}  // namespace

std::vector<SweepPoint> RunSweep(const std::vector<core::StackConfig>& configs,
                                 const SweepOptions& options) {
  std::vector<SweepPoint> points(configs.size());
  if (!options.skip.empty() && options.skip.size() != configs.size()) {
    throw std::invalid_argument("RunSweep: skip mask size != config count");
  }

  std::atomic<std::size_t> done{0};
  const auto run_one = [&](std::size_t i) {
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
      node::SimulationOptions sim_options;
      sim_options.config = configs[i];
      sim_options.seed = SweepSeed(options.base_seed, i);
      sim_options.packet_count = options.packet_count;
      sim_options.collect_counters = options.collect_counters;
      // Every growable resource comes from the worker's recycled scratch;
      // results do not depend on what the scratch ran before.
      node::LinkRunScratch& scratch = WorkerScratch();
      auto result = node::RunLinkSimulation(sim_options, scratch);
      points[i].config = configs[i];
      points[i].measured = metrics::ComputeMetrics(
          result, configs[i].pkt_interval_ms, scratch.delay_buf);
      points[i].mean_snr_db = result.mean_snr_db;
      points[i].counters = std::move(result.counters);
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
  };
  util::ThreadPool::Shared().ParallelFor(configs.size(), options.threads,
                                         run_one);
  return points;
}

}  // namespace wsnlink::experiment
