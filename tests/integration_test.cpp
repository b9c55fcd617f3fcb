// Integration tests: the simulated testbed and the empirical models must
// tell the same story. These are the properties the paper's analysis rests
// on — parameterized across the configuration space (TEST_P sweeps).
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "core/models/model_set.h"
#include "core/opt/baselines.h"
#include "experiment/sweep.h"
#include "metrics/link_metrics.h"
#include "node/link_simulation.h"
#include "util/stats.h"

namespace wsnlink {
namespace {

node::SimulationOptions BaseOptions() {
  node::SimulationOptions options;
  options.config.distance_m = 25.0;
  options.config.pa_level = 19;
  options.config.max_tries = 3;
  options.config.queue_capacity = 10;
  options.config.pkt_interval_ms = 100.0;
  options.config.payload_bytes = 80;
  options.packet_count = 800;
  options.seed = 1234;
  return options;
}

// ------------------------------------------------ model vs measurement ----

/// Sweep axis: (distance, pa_level) pairs covering strong to grey links.
struct LinkPoint {
  double distance_m;
  int pa_level;
  // gtest prints this parameter as a byte dump, and ctest bakes the dump
  // into every test name; naming the four bytes the compiler would pad
  // here keeps uninitialised memory out of the names.
  int zero_pad = 0;
};

class ModelTracksSimulation : public ::testing::TestWithParam<LinkPoint> {};

TEST_P(ModelTracksSimulation, PerWithinTolerance) {
  auto options = BaseOptions();
  options.config.distance_m = GetParam().distance_m;
  options.config.pa_level = GetParam().pa_level;
  options.config.max_tries = 1;
  options.config.pkt_interval_ms = 60.0;

  const auto result = node::RunLinkSimulation(options);
  const auto measured =
      metrics::ComputeMetrics(result, options.config.pkt_interval_ms);
  const core::models::ModelSet models;
  const double predicted =
      models.Per().Per(options.config.payload_bytes, result.mean_snr_db);

  // Within the model's validity region, measurement tracks Eq. 3. The
  // tolerance is part absolute, part relative: temporal shadowing biases
  // the measured mean upward (Jensen: PER is convex in SNR) and the model
  // references payload bytes while an attempt also risks the ACK.
  if (result.mean_snr_db > 6.0 && result.mean_snr_db < 28.0) {
    EXPECT_NEAR(measured.per, predicted, 0.05 + 0.6 * predicted)
        << "SNR=" << result.mean_snr_db;
  }
}

TEST_P(ModelTracksSimulation, ServiceTimeWithinTenPercent) {
  auto options = BaseOptions();
  options.config.distance_m = GetParam().distance_m;
  options.config.pa_level = GetParam().pa_level;

  const auto result = node::RunLinkSimulation(options);
  const auto measured =
      metrics::ComputeMetrics(result, options.config.pkt_interval_ms);
  if (measured.delivered_unique < 50) return;  // dead link: nothing to check

  const core::models::ModelSet models;
  core::models::ServiceTimeInputs in;
  in.payload_bytes = options.config.payload_bytes;
  in.snr_db = result.mean_snr_db;
  in.max_tries = options.config.max_tries;
  in.retry_delay_ms = options.config.retry_delay_ms;
  const double predicted = models.Service().MeanMs(in);
  EXPECT_NEAR(measured.mean_service_ms, predicted, 0.15 * predicted)
      << "SNR=" << result.mean_snr_db;
}

TEST_P(ModelTracksSimulation, EnergyWithinTolerance) {
  auto options = BaseOptions();
  options.config.distance_m = GetParam().distance_m;
  options.config.pa_level = GetParam().pa_level;
  options.config.max_tries = 3;

  const auto result = node::RunLinkSimulation(options);
  const auto measured =
      metrics::ComputeMetrics(result, options.config.pkt_interval_ms);
  if (measured.delivered_unique < 100) return;

  const core::models::ModelSet models;
  const double predicted = models.Energy().MicrojoulesPerBit(
      options.config.payload_bytes, result.mean_snr_db,
      options.config.pa_level);
  if (std::isinf(predicted)) return;
  EXPECT_NEAR(measured.energy_uj_per_bit, predicted, 0.20 * predicted)
      << "SNR=" << result.mean_snr_db;
}

TEST_P(ModelTracksSimulation, RadioLossWithinTolerance) {
  auto options = BaseOptions();
  options.config.distance_m = GetParam().distance_m;
  options.config.pa_level = GetParam().pa_level;
  options.config.max_tries = 1;  // Eq. 8 at N=1 equals the attempt base
  options.packet_count = 1200;

  const auto result = node::RunLinkSimulation(options);
  const auto measured =
      metrics::ComputeMetrics(result, options.config.pkt_interval_ms);
  const core::models::ModelSet models;
  const double predicted = models.Plr().RadioLoss(
      options.config.payload_bytes, result.mean_snr_db, 1);
  if (result.mean_snr_db > 6.0 && result.mean_snr_db < 28.0) {
    EXPECT_NEAR(measured.plr_radio, predicted, 0.05 + 0.6 * predicted)
        << "SNR=" << result.mean_snr_db;
  }
}

TEST_P(ModelTracksSimulation, SaturatedGoodputWithinTolerance) {
  auto options = BaseOptions();
  options.config.distance_m = GetParam().distance_m;
  options.config.pa_level = GetParam().pa_level;
  options.config.pkt_interval_ms = 1.0;  // saturating sender
  options.config.queue_capacity = 30;
  options.config.max_tries = 3;
  options.packet_count = 2500;

  const auto result = node::RunLinkSimulation(options);
  const auto measured = metrics::ComputeMetrics(result, 1.0);
  if (measured.delivered_unique < 100) return;  // dead link

  const core::models::ModelSet models;
  core::models::ServiceTimeInputs in;
  in.payload_bytes = options.config.payload_bytes;
  in.snr_db = result.mean_snr_db;
  in.max_tries = options.config.max_tries;
  const double predicted = models.Goodput().MaxGoodputKbps(in);
  EXPECT_NEAR(measured.goodput_kbps, predicted, 0.2 * predicted)
      << "SNR=" << result.mean_snr_db;
}

INSTANTIATE_TEST_SUITE_P(
    LinkQualitySweep, ModelTracksSimulation,
    ::testing::Values(LinkPoint{10.0, 31}, LinkPoint{15.0, 23},
                      LinkPoint{20.0, 19}, LinkPoint{25.0, 15},
                      LinkPoint{30.0, 15}, LinkPoint{30.0, 11},
                      LinkPoint{35.0, 15}, LinkPoint{35.0, 11}),
    [](const ::testing::TestParamInfo<LinkPoint>& info) {
      // Built with += rather than an operator+ chain: GCC 12's -O3
      // inliner raises a bogus -Wrestrict on `const char* + string&&`
      // (PR105651), which the -Werror checked build would promote.
      std::string name = "d";
      name += std::to_string(static_cast<int>(info.param.distance_m));
      name += "_p";
      name += std::to_string(info.param.pa_level);
      return name;
    });

// -------------------------------------------- payload-size properties ----

class PayloadSweep : public ::testing::TestWithParam<int> {};

TEST_P(PayloadSweep, PerGrowsWithPayloadAtFixedSnr) {
  // Fig. 6(c): at the same link, bigger frames fail more.
  auto options = BaseOptions();
  options.config.distance_m = 35.0;
  options.config.pa_level = 11;
  options.config.max_tries = 1;
  options.config.payload_bytes = GetParam();
  options.packet_count = 1500;
  const auto small = metrics::MeasureConfig(options);

  options.config.payload_bytes = 110;
  const auto large = metrics::MeasureConfig(options);
  if (GetParam() <= 50) {
    EXPECT_GT(large.per, small.per) << "payload=" << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(PayloadSizes, PayloadSweep,
                         ::testing::Values(5, 20, 35, 50));

// ----------------------------------------------- qualitative findings ----

TEST(PaperFindings, GoodputSaturatesAboveLowImpactZone) {
  // Sec. V: goodput rises with SNR until ~19 dB, then flattens.
  auto options = BaseOptions();
  options.config.distance_m = 35.0;
  options.config.max_tries = 1;          // sharpen the SNR dependence
  options.config.pkt_interval_ms = 5.0;  // saturating-ish traffic
  options.config.queue_capacity = 30;
  options.config.payload_bytes = 110;
  // Long run: averages over many shadowing coherence times, so the
  // comparison reflects the mean link rather than one fade realisation.
  options.packet_count = 2500;

  double goodput_grey = 0.0;
  double goodput_edge = 0.0;
  double goodput_high = 0.0;
  options.config.pa_level = 7;  // ~8-9 dB
  goodput_grey = metrics::MeasureConfig(options).goodput_kbps;
  options.config.pa_level = 19;  // ~19 dB
  goodput_edge = metrics::MeasureConfig(options).goodput_kbps;
  options.config.pa_level = 31;  // ~24 dB
  goodput_high = metrics::MeasureConfig(options).goodput_kbps;

  EXPECT_GT(goodput_edge, 1.3 * goodput_grey);
  // Beyond the knee, extra power buys little.
  EXPECT_LT(goodput_high, 1.2 * goodput_edge);
}

TEST(PaperFindings, QueueDelayOrdersOfMagnitude) {
  // Fig. 15: in the grey zone with high load, Qmax=30 delays are orders of
  // magnitude above Qmax=1.
  auto options = BaseOptions();
  options.config.distance_m = 35.0;
  options.config.pa_level = 11;
  options.config.max_tries = 8;
  options.config.pkt_interval_ms = 20.0;
  options.config.payload_bytes = 110;
  options.packet_count = 600;

  options.config.queue_capacity = 1;
  const auto q1 = metrics::MeasureConfig(options);
  options.config.queue_capacity = 30;
  const auto q30 = metrics::MeasureConfig(options);

  EXPECT_GT(q30.mean_delay_ms, 8.0 * q1.mean_delay_ms);
}

TEST(PaperFindings, RetransmissionTradeoffUnderHighLoad) {
  // Sec. VII / Fig. 17: in the grey zone at high arrival rate,
  // retransmissions trade radio loss for queue loss.
  auto options = BaseOptions();
  options.config.distance_m = 35.0;
  options.config.pa_level = 11;
  options.config.pkt_interval_ms = 30.0;
  options.config.payload_bytes = 110;
  options.config.queue_capacity = 1;
  options.packet_count = 800;

  options.config.max_tries = 1;
  const auto no_retx = metrics::MeasureConfig(options);
  options.config.max_tries = 8;
  const auto retx = metrics::MeasureConfig(options);

  EXPECT_LT(retx.plr_radio, no_retx.plr_radio);   // radio loss improves
  EXPECT_GT(retx.plr_queue, no_retx.plr_queue);   // queue loss worsens
}

TEST(PaperFindings, LargeQueueAbsorbsOverflowLoss) {
  // Fig. 17(d): only a large queue reduces PLR_queue once rho > 1.
  auto options = BaseOptions();
  options.config.distance_m = 35.0;
  options.config.pa_level = 11;
  options.config.max_tries = 8;
  options.config.pkt_interval_ms = 30.0;
  options.config.payload_bytes = 110;
  options.packet_count = 800;

  options.config.queue_capacity = 1;
  const auto small_queue = metrics::MeasureConfig(options);
  options.config.queue_capacity = 30;
  const auto large_queue = metrics::MeasureConfig(options);
  EXPECT_LT(large_queue.plr_queue, small_queue.plr_queue);
}

TEST(PaperFindings, OptimalPowerNotMaxForEnergy) {
  // Fig. 7: at 35 m the energy-optimal PA level is intermediate.
  auto options = BaseOptions();
  options.config.distance_m = 35.0;
  options.config.max_tries = 3;
  options.config.pkt_interval_ms = 60.0;
  options.config.payload_bytes = 50;
  options.packet_count = 700;

  double best_energy = 1e18;
  int best_level = -1;
  for (const int level : {3, 7, 11, 15, 19, 23, 27, 31}) {
    options.config.pa_level = level;
    options.seed = 555;  // shared seed: same channel realisation
    const auto m = metrics::MeasureConfig(options);
    if (m.delivered_unique < 50) continue;  // dead link
    if (m.energy_uj_per_bit < best_energy) {
      best_energy = m.energy_uj_per_bit;
      best_level = level;
    }
  }
  EXPECT_GE(best_level, 7);
  EXPECT_LE(best_level, 19);
}

TEST(PaperFindings, UtilizationRuleSeparatesDelayRegimes) {
  // Sec. VI: rho < 1 -> small queueing delay; rho > 1 -> huge.
  const core::models::ModelSet models;
  auto options = BaseOptions();
  options.config.distance_m = 30.0;
  options.config.pa_level = 15;
  options.config.queue_capacity = 30;
  options.config.payload_bytes = 110;
  options.config.max_tries = 3;
  options.packet_count = 500;

  // Model says which intervals are stable.
  core::models::ServiceTimeInputs in;
  in.payload_bytes = 110;
  in.snr_db = models.LinkQuality().SnrDb(15, 30.0);
  in.max_tries = 3;
  const double t_service = models.Service().MeanMs(in);

  options.config.pkt_interval_ms = t_service * 1.6;  // rho ~ 0.63
  const auto stable = metrics::MeasureConfig(options);
  options.config.pkt_interval_ms = t_service * 0.6;  // rho ~ 1.7
  const auto saturated = metrics::MeasureConfig(options);

  EXPECT_LT(stable.mean_queue_wait_ms, t_service);
  EXPECT_GT(saturated.mean_queue_wait_ms, 5.0 * t_service);
}

TEST(PaperFindings, JointTuningBeatsSingleKnobsOnSimulatedLink) {
  // The Fig. 1 headline, verified on the simulator rather than the models:
  // evaluate all five policies on the same grey-zone link. The case-study
  // link is a static deep fade (the paper's "SNR increases to 6 dB at
  // maximum power" example assumes a fixed link quality).
  constexpr double kCaseShadowDb = -17.3;
  const core::models::ModelSet models(
      core::models::kPaperPerFit, core::models::kPaperNtriesFit,
      core::models::kPaperPlrFit,
      core::models::LinkQualityMap(channel::PathLossParams{}, -95.0,
                                   kCaseShadowDb));
  const auto base = core::opt::CaseStudyBaseConfig(35.0);
  const auto joint = core::opt::JointTuning(models, base, 0.55);

  const auto evaluate = [&](const core::StackConfig& config) {
    node::SimulationOptions options;
    options.config = config;
    options.packet_count = 1200;
    options.seed = 99;
    options.spatial_shadow_db = kCaseShadowDb;
    options.disable_temporal_shadowing = true;
    return metrics::MeasureConfig(options);
  };

  const auto joint_measured = evaluate(joint.config);
  const auto power_measured =
      evaluate(core::opt::TunePowerBaseline(base).config);
  const auto retx_measured =
      evaluate(core::opt::TuneRetransmissionsBaseline(base).config);
  const auto min_payload_measured =
      evaluate(core::opt::MinPayloadBaseline(base).config);

  EXPECT_GT(joint_measured.goodput_kbps, power_measured.goodput_kbps);
  EXPECT_GT(joint_measured.goodput_kbps, retx_measured.goodput_kbps);
  EXPECT_GT(joint_measured.goodput_kbps, min_payload_measured.goodput_kbps);
  // Better energy than the no-retransmission max-power policy too.
  EXPECT_LT(joint_measured.energy_uj_per_bit,
            power_measured.energy_uj_per_bit);
}

TEST(PaperFindings, CaseStudyDominanceHoldsAcrossSeeds) {
  // The Fig. 1 verdict with error bars: joint beats power-only beyond the
  // 95% intervals on the static case-study link.
  node::SimulationOptions joint;
  joint.config.distance_m = 35.0;
  joint.config.pa_level = 31;
  joint.config.max_tries = 8;
  joint.config.queue_capacity = 30;
  joint.config.pkt_interval_ms = 1.0;
  joint.config.payload_bytes = 100;
  // Saturating sender: only the served stream matters, so give it enough
  // arrivals for a few hundred served packets per run.
  joint.packet_count = 5000;
  joint.spatial_shadow_db = -17.3;
  joint.disable_temporal_shadowing = true;

  auto power_only = joint;
  power_only.config.max_tries = 1;
  power_only.config.payload_bytes = 114;

  // Goodput and energy of eight seeded runs of one policy.
  const auto measure = [](node::SimulationOptions options) {
    std::pair<util::RunningStats, util::RunningStats> goodput_energy;
    for (std::size_t r = 0; r < 8; ++r) {
      options.seed = experiment::SweepSeed(17, r);
      const auto m = metrics::MeasureConfig(options);
      goodput_energy.first.Add(m.goodput_kbps);
      goodput_energy.second.Add(m.energy_uj_per_bit);
    }
    return goodput_energy;
  };
  // Half-width of the ~95% confidence interval of the mean.
  const auto ci95 = [](const util::RunningStats& s) {
    return 1.96 * s.StdDev() / std::sqrt(static_cast<double>(s.Count()));
  };

  const auto [joint_goodput, joint_energy] = measure(joint);
  const auto [power_goodput, power_energy] = measure(power_only);
  EXPECT_GT(joint_goodput.Mean() - ci95(joint_goodput),
            power_goodput.Mean() + ci95(power_goodput));
  // On energy the two policies are close (Eq. 2 is N-independent); joint
  // must be at least non-inferior within the error bars.
  EXPECT_LE(joint_energy.Mean(), power_energy.Mean() + ci95(power_energy));
}

}  // namespace
}  // namespace wsnlink
