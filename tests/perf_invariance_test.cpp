// Property suite locking down the sweep executor and the two drivers of
// the MAC ladders.
//
// The performance work (shared pool, recycled per-worker scratch, inline
// MAC driver) is only admissible because it changes *nothing* observable.
// This file pins that:
//  * bit-identical metrics and counters across worker counts {1, 4, 16};
//  * tracing only observes: traced and untraced runs agree on every
//    packet, metric and counter, kernel event counts included;
//  * the inline driver (no shared medium) and the event driver (a medium
//    attached) agree up to the first packet that arrives at the instant
//    another completes, a tie the two drivers break in opposite orders;
// plus the physical monotonicity properties the paper's models rely on:
// PER non-increasing in SNR, every served packet uses >= 1 transmission,
// PLR_radio non-increasing in N_maxTries, and energy per delivered bit
// minimised at an interior payload size.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "channel/medium.h"
#include "core/opt/config_space.h"
#include "experiment/sweep.h"
#include "metrics/link_metrics.h"
#include "node/link_simulation.h"
#include "node/node_stack.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace wsnlink {
namespace {

std::vector<core::StackConfig> SliceOfTableI(std::size_t count) {
  const auto space = core::opt::ConfigSpace::PaperTableI();
  std::vector<core::StackConfig> configs;
  const std::size_t stride = space.Size() / count + 1;
  for (std::size_t i = 0; i < space.Size(); i += stride) {
    configs.push_back(space.At(i));
  }
  return configs;
}

/// Field-by-field bit-exact metric comparison (EXPECT_EQ on doubles is
/// deliberate: any divergence is a determinism bug, not noise).
void ExpectSamePoint(const experiment::SweepPoint& a,
                     const experiment::SweepPoint& b, std::size_t i) {
  EXPECT_EQ(a.measured.generated, b.measured.generated) << "config " << i;
  EXPECT_EQ(a.measured.delivered_unique, b.measured.delivered_unique)
      << "config " << i;
  EXPECT_EQ(a.measured.per, b.measured.per) << "config " << i;
  EXPECT_EQ(a.measured.goodput_kbps, b.measured.goodput_kbps)
      << "config " << i;
  EXPECT_EQ(a.measured.energy_uj_per_bit, b.measured.energy_uj_per_bit)
      << "config " << i;
  EXPECT_EQ(a.measured.mean_delay_ms, b.measured.mean_delay_ms)
      << "config " << i;
  EXPECT_EQ(a.measured.p99_delay_ms, b.measured.p99_delay_ms)
      << "config " << i;
  EXPECT_EQ(a.measured.plr_queue, b.measured.plr_queue) << "config " << i;
  EXPECT_EQ(a.measured.plr_radio, b.measured.plr_radio) << "config " << i;
  EXPECT_EQ(a.measured.mean_tries_all, b.measured.mean_tries_all)
      << "config " << i;
  EXPECT_EQ(a.mean_snr_db, b.mean_snr_db) << "config " << i;
}

TEST(PerfInvariance, ThreadAndChunkCrossProductIsBitIdentical) {
  // Each participant takes one config at a time from the shared cursor, so
  // the worker count decides which thread (and which recycled scratch) runs
  // a config; it must not decide any result.
  const auto configs = SliceOfTableI(8);
  ASSERT_GE(configs.size(), 6u);

  experiment::SweepOptions reference_options;
  reference_options.base_seed = 20150629;
  reference_options.packet_count = 100;
  reference_options.threads = 1;
  const auto reference = RunSweep(configs, reference_options);

  for (const unsigned threads : {1u, 4u, 16u}) {
    auto options = reference_options;
    options.threads = threads;
    const auto run = RunSweep(configs, options);
    ASSERT_EQ(run.size(), reference.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < run.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads));
      ExpectSamePoint(reference[i], run[i], i);
      EXPECT_TRUE(reference[i].counters == run[i].counters) << "config " << i;
    }
  }
}

/// A Table I config run for 300 packets (seed SweepSeed(99, index)) with
/// CSMA, or with LPL at `lpl_wakeup_ms` when that is nonzero.
struct TieCase {
  std::size_t index;
  double lpl_wakeup_ms;
};

/// Runs that contain a packet arriving at the instant an earlier one
/// completes, and whose inline and event drivers part ways at such a tie:
/// four CSMA configs, and one LPL config at each of three wakeups.
constexpr TieCase kTieCases[] = {{6216, 0.0},    {11174, 0.0},
                                 {19573, 0.0},   {35964, 0.0},
                                 {10946, 50.0},  {40158, 100.0},
                                 {6344, 200.0}};

node::SimulationOptions TieReproducer(const TieCase& tie) {
  node::SimulationOptions options;
  options.config = core::opt::ConfigSpace::PaperTableI().At(tie.index);
  options.seed = experiment::SweepSeed(99, tie.index);
  options.packet_count = 300;
  if (tie.lpl_wakeup_ms > 0.0) {
    options.mac = node::MacKind::kLpl;
    options.lpl_wakeup_interval_ms = tie.lpl_wakeup_ms;
  }
  return options;
}

std::string Describe(const TieCase& tie) {
  const std::string mac =
      tie.lpl_wakeup_ms > 0.0
          ? "LPL " + std::to_string(static_cast<int>(tie.lpl_wakeup_ms)) + " ms"
          : "CSMA";
  return "config " + std::to_string(tie.index) + " (" + mac + ")";
}

// A tracer only observes: the traced run takes the same driver as the
// untraced one, so every metric, counter (sim.* included), packet and
// attempt agrees, ties and all.
TEST(PerfInvariance, TracedAndUntracedPathsAgree) {
  const auto configs = SliceOfTableI(6);
  for (std::size_t i = 0; i < configs.size(); ++i) {
    node::SimulationOptions options;
    options.config = configs[i];
    options.seed = experiment::SweepSeed(424242, i);
    options.packet_count = 150;
    const auto untraced = node::RunLinkSimulation(options);
    trace::Tracer tracer;
    options.tracer = &tracer;
    const auto traced = node::RunLinkSimulation(options);

    const double interval = configs[i].pkt_interval_ms;
    experiment::SweepPoint a;
    a.measured = metrics::ComputeMetrics(untraced, interval);
    a.mean_snr_db = untraced.mean_snr_db;
    experiment::SweepPoint b;
    b.measured = metrics::ComputeMetrics(traced, interval);
    b.mean_snr_db = traced.mean_snr_db;
    ExpectSamePoint(a, b, i);
    EXPECT_TRUE(untraced.counters == traced.counters) << "config " << i;
    EXPECT_FALSE(tracer.Events().empty()) << "config " << i;
  }

  for (const TieCase& tie : kTieCases) {
    const std::string what = Describe(tie);
    auto run_options = TieReproducer(tie);
    const auto plain = node::RunLinkSimulation(run_options);
    trace::Tracer tracer;
    run_options.tracer = &tracer;
    const auto traced_run = node::RunLinkSimulation(run_options);

    const auto& a = plain.log.Packets();
    const auto& b = traced_run.log.Packets();
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t k = 0; k < a.size(); ++k) {
      EXPECT_TRUE(a[k] == b[k]) << what << ": packet " << k;
    }
    const auto& x = plain.log.Attempts();
    const auto& y = traced_run.log.Attempts();
    ASSERT_EQ(x.size(), y.size()) << what;
    for (std::size_t k = 0; k < x.size(); ++k) {
      EXPECT_TRUE(x[k] == y[k]) << what << ": attempt " << k;
    }
    EXPECT_EQ(plain.events_executed, traced_run.events_executed) << what;
    EXPECT_TRUE(plain.counters == traced_run.counters) << what;
  }
}

/// True when packet `k` arrives at the exact instant an earlier packet
/// completes: the tie the two drivers break in opposite orders.
bool ArrivesAtACompletion(const std::vector<link::PacketRecord>& packets,
                          std::size_t k) {
  for (std::size_t j = 0; j < k; ++j) {
    if (packets[j].completed_at == packets[k].arrived_at) return true;
  }
  return false;
}

TEST(PerfInvariance, InlineAndEventDriversAgreeUntilACompletionArrivalTie) {
  // Without a shared medium the MAC runs a packet's ladder when the packet
  // is sent and schedules Complete() right away, so at a
  // completion/arrival tie it frees the queue before the arrival runs.
  // With a medium attached (here a single-node one, which never finds the
  // air busy) each step is an event and Complete() is scheduled from the
  // last one, after the arrival, which then finds the queue full. Whatever
  // the tie order, the drivers must agree on every packet before the first
  // divergence, and that packet must arrive at an earlier packet's
  // completion instant. Both MACs share the one driver, so the rule holds
  // for CSMA and LPL alike.
  for (const TieCase& tie : kTieCases) {
    const std::string what = Describe(tie);
    const auto options = TieReproducer(tie);
    const auto inline_run = node::RunLinkSimulation(options);

    sim::Simulator simulator;
    channel::Medium medium;
    node::NodeScratch scratch;
    node::NodeStack stack(simulator, options, util::Rng(options.seed),
                          &medium, 0, scratch);
    stack.Start();
    simulator.Run();
    const auto event_run =
        stack.Harvest(simulator.Now(), simulator.EventsExecuted());

    const auto& a = inline_run.log.Packets();
    const auto& b = event_run.log.Packets();
    ASSERT_EQ(a.size(), b.size()) << what;
    std::size_t ties = 0;
    for (std::size_t k = 0; k < a.size(); ++k) {
      if (ArrivesAtACompletion(a, k)) ++ties;
    }
    EXPECT_GT(ties, 0u) << what << " no longer has a tie";
    std::size_t first = 0;
    while (first < a.size() && a[first] == b[first]) ++first;
    ASSERT_LT(first, a.size()) << what << ": the drivers no longer part ways";
    EXPECT_TRUE(ArrivesAtACompletion(a, first))
        << what << ": packet " << first
        << " differs without a completion/arrival tie";
    EXPECT_LT(inline_run.events_executed, event_run.events_executed) << what;
  }
}

// ---------------------------------------------------------------------------
// Physical monotonicity properties (paper Sec. III): these hold for any
// correct executor and would catch a driver that, say, reuses RNG draws
// or mis-orders attempts.
// ---------------------------------------------------------------------------

core::StackConfig GreyZoneConfig() {
  core::StackConfig config;
  config.distance_m = 35.0;
  config.pa_level = 11;
  config.max_tries = 3;
  config.queue_capacity = 10;
  config.pkt_interval_ms = 100.0;
  config.payload_bytes = 110;
  return config;
}

/// Config `index` of a quiet-channel run list (no temporal shadowing, no
/// interference), seeded SweepSeed(31337, index) as a sweep seeds it.
node::SimulationOptions QuietChannelOptions(const core::StackConfig& config,
                                            std::size_t index) {
  node::SimulationOptions options;
  options.config = config;
  options.seed = experiment::SweepSeed(31337, index);
  options.packet_count = 400;
  options.disable_temporal_shadowing = true;
  options.disable_interference = true;
  return options;
}

/// Measures every config on the quiet channel, as the sweep's per-config
/// body does: one run, then ComputeMetrics.
std::vector<experiment::SweepPoint> RunQuiet(
    const std::vector<core::StackConfig>& configs) {
  std::vector<experiment::SweepPoint> points(configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto result =
        node::RunLinkSimulation(QuietChannelOptions(configs[i], i));
    points[i].config = configs[i];
    points[i].measured =
        metrics::ComputeMetrics(result, configs[i].pkt_interval_ms);
    points[i].mean_snr_db = result.mean_snr_db;
  }
  return points;
}

TEST(PerfInvariance, PerNonIncreasingInSnr) {
  // Walk P_tx up the CC2420 ladder at fixed distance: SNR rises with each
  // step, so attempt-level PER must fall (modulo sampling noise on a
  // quiet channel, hence the small slack).
  std::vector<core::StackConfig> configs;
  for (const int pa : {3, 7, 11, 15, 19, 23, 27, 31}) {
    auto config = GreyZoneConfig();
    config.pa_level = pa;
    configs.push_back(config);
  }
  const auto points = RunQuiet(configs);
  ASSERT_EQ(points.size(), configs.size());
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_GT(points[i].mean_snr_db, points[i - 1].mean_snr_db)
        << "pa step " << i;
    EXPECT_LE(points[i].measured.per, points[i - 1].measured.per + 0.03)
        << "PER rose from pa_level " << configs[i - 1].pa_level << " to "
        << configs[i].pa_level;
  }
  // And the endpoints are far apart: the ladder actually spans the grey
  // zone rather than saturating at one end.
  EXPECT_GT(points.front().measured.per, points.back().measured.per + 0.10);
}

TEST(PerfInvariance, EveryServedPacketUsesAtLeastOneTry) {
  std::vector<core::StackConfig> configs;
  for (const int pa : {3, 11, 31}) {
    auto config = GreyZoneConfig();
    config.pa_level = pa;
    configs.push_back(config);
  }
  for (std::size_t i = 0; i < configs.size(); ++i) {
    auto options = QuietChannelOptions(configs[i], i);
    options.packet_count = 200;
    const auto result = node::RunLinkSimulation(options);
    for (const auto& packet : result.log.Packets()) {
      if (packet.dropped_at_queue) continue;
      EXPECT_GE(packet.tries, 1) << "served packet with zero transmissions";
    }
  }
}

TEST(PerfInvariance, RadioLossNonIncreasingInMaxTries) {
  std::vector<core::StackConfig> configs;
  for (const int tries : {1, 2, 4, 8}) {
    auto config = GreyZoneConfig();
    config.max_tries = tries;
    configs.push_back(config);
  }
  const auto points = RunQuiet(configs);
  for (std::size_t i = 1; i < points.size(); ++i) {
    EXPECT_LE(points[i].measured.plr_radio,
              points[i - 1].measured.plr_radio + 0.03)
        << "PLR_radio rose from max_tries " << configs[i - 1].max_tries
        << " to " << configs[i].max_tries;
  }
  EXPECT_GT(points.front().measured.plr_radio,
            points.back().measured.plr_radio);
}

TEST(PerfInvariance, EnergyPerBitMinimisedAtInteriorPayload) {
  // Tiny payloads waste energy on header overhead; maximal payloads on a
  // grey link waste it on retransmissions of long frames. The optimum is
  // interior (the paper's Fig. 9 trade-off).
  std::vector<core::StackConfig> configs;
  const std::vector<int> payloads = {4, 20, 40, 60, 80, 100, 114};
  for (const int payload : payloads) {
    auto config = GreyZoneConfig();
    config.payload_bytes = payload;
    configs.push_back(config);
  }
  const auto points = RunQuiet(configs);
  std::size_t best = 0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].measured.energy_uj_per_bit <
        points[best].measured.energy_uj_per_bit) {
      best = i;
    }
  }
  EXPECT_GT(best, 0u) << "energy/bit minimised at the smallest payload";
  EXPECT_LT(best, payloads.size() - 1)
      << "energy/bit minimised at the largest payload";
}

}  // namespace
}  // namespace wsnlink
