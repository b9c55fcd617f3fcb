#include "experiment/sweep.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/models/model_set.h"
#include "core/opt/objectives.h"
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

/// Fills a SweepPoint from a model prediction (prescreened config).
void FillFromPrediction(SweepPoint& point, const core::StackConfig& config,
                        const core::models::MetricPrediction& prediction) {
  point.config = config;
  point.simulated = false;
  point.mean_snr_db = prediction.snr_db;
  point.measured.generated = 0;
  point.measured.per = prediction.per;
  point.measured.mean_tries_all = prediction.mean_tries;
  point.measured.mean_tries_acked = prediction.mean_tries;
  point.measured.mean_service_ms = prediction.service_time_ms;
  point.measured.utilization = prediction.utilization;
  point.measured.goodput_kbps = prediction.max_goodput_kbps;
  point.measured.energy_uj_per_bit = prediction.energy_uj_per_bit;
  point.measured.mean_delay_ms = prediction.total_delay_ms;
  point.measured.plr_radio = prediction.plr_radio;
  point.measured.plr_queue = prediction.plr_queue;
  point.measured.plr_total = prediction.plr_total;
  point.measured.mean_snr_db = prediction.snr_db;
}

}  // namespace

std::vector<bool> PrescreenMask(const std::vector<core::StackConfig>& configs,
                                double slack) {
  using core::opt::Metric;
  const core::models::ModelSet models;
  const Metric kObjectives[] = {Metric::kEnergy, Metric::kGoodput,
                                Metric::kDelay, Metric::kLoss};

  struct Costs {
    double v[4];
  };
  std::vector<core::models::MetricPrediction> predictions(configs.size());
  models.PredictBatch(configs, predictions);
  std::vector<Costs> costs(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    for (std::size_t m = 0; m < 4; ++m) {
      costs[i].v[m] = core::opt::MetricCost(predictions[i], kObjectives[m]);
    }
  }

  // `a` epsilon-dominates `b` when a is better than b by more than `slack`
  // (relative, against the cost magnitude) on every objective. The strict
  // "every objective" form keeps ties and near-ties simulated.
  const auto dominates = [slack](const Costs& a, const Costs& b) {
    for (std::size_t m = 0; m < 4; ++m) {
      const double margin = slack * std::max(std::abs(b.v[m]), 1e-9);
      if (a.v[m] >= b.v[m] - margin) return false;
    }
    return true;
  };

  // Incremental non-dominated filter: compare each config against the
  // running front only (the front stays small relative to the sweep), then
  // prune front members the newcomer dominates.
  std::vector<bool> keep(configs.size(), true);
  std::vector<std::size_t> front;
  for (std::size_t i = 0; i < configs.size(); ++i) {
    bool dominated = false;
    for (const std::size_t f : front) {
      if (dominates(costs[f], costs[i])) {
        dominated = true;
        break;
      }
    }
    if (dominated) {
      keep[i] = false;
      continue;
    }
    std::erase_if(front, [&](std::size_t f) {
      if (dominates(costs[i], costs[f])) {
        keep[f] = false;
        return true;
      }
      return false;
    });
    front.push_back(i);
  }
  return keep;
}

std::vector<SweepPoint> RunSweep(const std::vector<core::StackConfig>& configs,
                                 const SweepOptions& options) {
  std::vector<SweepPoint> points(configs.size());
  if (!options.skip.empty() && options.skip.size() != configs.size()) {
    throw std::invalid_argument("RunSweep: skip mask size != config count");
  }

  std::vector<bool> keep;
  if (options.analytic_prescreen) {
    keep = PrescreenMask(configs, options.prescreen_slack);
    const core::models::ModelSet models;
    std::vector<core::models::MetricPrediction> predictions(configs.size());
    models.PredictBatch(configs, predictions);
    for (std::size_t i = 0; i < configs.size(); ++i) {
      if (!keep[i]) {
        FillFromPrediction(points[i], configs[i], predictions[i]);
      }
    }
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
    if (!keep.empty() && !keep[i]) {
      if (options.on_point) options.on_point(i, points[i]);
      if (options.progress) {
        options.progress(done.fetch_add(1) + 1, configs.size());
      }
      return;
    }
    // Graceful degradation: a worker that throws (simulation bug, injected
    // fault, bad config) marks *this* point failed instead of taking the
    // whole campaign down with it.
    try {
      if (util::FaultInjector::Global().Armed()) {
        util::FaultInjector::Global().MaybeThrow("sweep.worker");
      }
      auto sim_options = MakeOptions(configs[i], options, i);
      if (options.capture_traces) {
        // Trace capture allocates by design (the event log escapes), so it
        // takes the plain path. Per-run tracer: runs never share
        // observability state, which is what keeps captured traces
        // identical across thread counts.
        const auto tracer =
            std::make_unique<trace::Tracer>(options.trace_capacity);
        sim_options.tracer = tracer.get();
        auto result = node::RunLinkSimulation(sim_options);
        points[i].config = configs[i];
        points[i].measured =
            metrics::ComputeMetrics(result, configs[i].pkt_interval_ms);
        points[i].mean_snr_db = result.mean_snr_db;
        points[i].counters = std::move(result.counters);
        points[i].events = tracer->Events();
      } else {
        // Steady-state hot path: every growable resource comes from the
        // worker's recycled scratch; results are bit-identical to the
        // plain path.
        node::LinkRunScratch& scratch = WorkerScratch();
        auto result = node::RunLinkSimulation(sim_options, scratch);
        points[i].config = configs[i];
        points[i].measured = metrics::ComputeMetrics(
            result, configs[i].pkt_interval_ms, scratch.delay_buf);
        points[i].mean_snr_db = result.mean_snr_db;
        points[i].counters = std::move(result.counters);
        // Hand the log's heap blocks back for the next run.
        result.log.ExtractStorage(scratch.packet_buf, scratch.attempt_buf);
      }
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
    results[i] = node::RunLinkSimulation(sim_options);
    if (options.progress) {
      options.progress(done.fetch_add(1) + 1, configs.size());
    }
  });
  return results;
}

}  // namespace wsnlink::experiment
