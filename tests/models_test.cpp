// Unit tests for the empirical models (Eqs. 2-8) including the paper's own
// published anchor values (Table II, zone thresholds).
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>

#include "core/models/delay_model.h"
#include "core/models/energy_model.h"
#include "core/models/goodput_model.h"
#include "core/models/link_quality.h"
#include "core/models/model_set.h"
#include "core/models/ntries_model.h"
#include "core/models/per_model.h"
#include "core/models/plr_model.h"
#include "core/models/service_time_model.h"
#include "core/opt/config_space.h"
#include "phy/frame.h"

namespace wsnlink::core::models {
namespace {

/// The message of the std::invalid_argument `fn` throws, or "" if it
/// throws nothing.
template <typename Fn>
std::string InvalidArgumentMessage(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// ---------------------------------------------------------- PER model ----

TEST(PerModel, PaperEquation3Values) {
  PerModel per;
  // PER = 0.0128 * l * exp(-0.15 * snr).
  EXPECT_NEAR(per.Per(110, 19.0), 0.0128 * 110 * std::exp(-0.15 * 19.0),
              1e-12);
  // At 19 dB the max-payload PER drops to ~0.08 (the paper's "PER
  // decreases to 0.1 until around 19 dB for maximum l_D").
  EXPECT_NEAR(per.Per(110, 19.0), 0.082, 0.005);
}

TEST(PerModel, MonotoneInPayloadAndSnr) {
  PerModel per;
  EXPECT_GT(per.Per(110, 10.0), per.Per(20, 10.0));
  EXPECT_GT(per.Per(50, 8.0), per.Per(50, 15.0));
}

TEST(PerModel, ClampsToProbabilityRange) {
  PerModel per;
  EXPECT_DOUBLE_EQ(per.Per(114, -20.0), 1.0);
  EXPECT_LT(per.Per(1, 40.0), 1e-3);
  EXPECT_GE(per.Per(1, 40.0), 0.0);
}

TEST(PerModel, ZoneClassificationMatchesFig6d) {
  EXPECT_EQ(PerModel::ClassifyZone(8.0), PerModel::Zone::kHighImpact);
  EXPECT_EQ(PerModel::ClassifyZone(15.0), PerModel::Zone::kMediumImpact);
  EXPECT_EQ(PerModel::ClassifyZone(19.0), PerModel::Zone::kLowImpact);
  EXPECT_EQ(PerModel::ClassifyZone(30.0), PerModel::Zone::kLowImpact);
}

TEST(PerModel, RejectsBadCoefficientsAndInputs) {
  EXPECT_THROW(PerModel({0.0, -0.1}), std::invalid_argument);
  EXPECT_THROW(PerModel({0.01, 0.1}), std::invalid_argument);
  PerModel per;
  EXPECT_THROW((void)per.Per(0, 10.0), std::invalid_argument);
}

// ------------------------------------------------------- Ntries model ----

TEST(NtriesModel, PaperEquation7Values) {
  NtriesModel n;
  EXPECT_NEAR(n.MeanTries(110, 20.0), 1.0 + 0.02 * 110 * std::exp(-3.6),
              1e-12);
  EXPECT_NEAR(n.MeanTries(110, 10.0), 1.3636, 0.01);
}

TEST(NtriesModel, AlwaysAtLeastOne) {
  NtriesModel n;
  EXPECT_GE(n.MeanTries(1, 40.0), 1.0);
  EXPECT_GE(n.MeanTriesTruncated(114, -10.0, 1), 1.0);
}

TEST(NtriesModel, TruncatedBoundedByMaxTries) {
  NtriesModel n;
  for (const int max_tries : {1, 2, 3, 8}) {
    const double mean = n.MeanTriesTruncated(114, 0.0, max_tries);
    EXPECT_LE(mean, static_cast<double>(max_tries));
    EXPECT_GE(mean, 1.0);
    // On a dead link the implied failure rate rounds to 1 (-300 dB) or
    // overflows (-1e6 dB); every attempt is spent.
    for (const double dead_snr : {-300.0, -1e6}) {
      EXPECT_EQ(n.MeanTriesTruncated(114, dead_snr, max_tries),
                static_cast<double>(max_tries))
          << dead_snr;
    }
  }
}

TEST(NtriesModel, TruncatedConvergesToUnboundedOnGoodLinks) {
  NtriesModel n;
  EXPECT_NEAR(n.MeanTriesTruncated(50, 25.0, 8), n.MeanTries(50, 25.0), 1e-3);
}

TEST(NtriesModel, RejectsBadInputsMaxTriesFirst) {
  NtriesModel n;
  EXPECT_THROW((void)n.MeanTries(0, 10.0), std::invalid_argument);
  EXPECT_THROW((void)n.MeanTriesTruncated(0, 10.0, 3), std::invalid_argument);
  EXPECT_THROW((void)n.MeanTriesTruncated(110, 10.0, 0), std::invalid_argument);
  // With both inputs bad, max_tries is checked before the payload.
  const std::string message =
      InvalidArgumentMessage([&] { (void)n.MeanTriesTruncated(0, 10.0, 0); });
  EXPECT_NE(message.find("max_tries"), std::string::npos) << message;
}

// ---------------------------------------------------------- PLR model ----

TEST(PlrModel, PaperEquation8Values) {
  PlrModel plr;
  const double base = 0.011 * 110 * std::exp(-0.145 * 10.0);
  EXPECT_NEAR(plr.RadioLoss(110, 10.0, 3), std::pow(base, 3), 1e-12);
}

TEST(PlrModel, MoreTriesStrictlyReduceLoss) {
  PlrModel plr;
  double prev = 1.1;
  for (int n = 1; n <= 8; ++n) {
    const double loss = plr.RadioLoss(114, 8.0, n);
    EXPECT_LT(loss, prev);
    prev = loss;
  }
}

TEST(PlrModel, MinTriesForLossFindsSmallest) {
  PlrModel plr;
  const int n = plr.MinTriesForLoss(110, 10.0, 0.01);
  ASSERT_GE(n, 1);
  EXPECT_LE(plr.RadioLoss(110, 10.0, n), 0.01);
  if (n > 1) {
    EXPECT_GT(plr.RadioLoss(110, 10.0, n - 1), 0.01);
  }
}

TEST(PlrModel, MinTriesForLossSaturatesAtLimit) {
  PlrModel plr;
  // Hopeless link: even `limit` tries cannot reach the target.
  EXPECT_EQ(plr.MinTriesForLoss(114, -5.0, 1e-9, 4), 4);
}

TEST(PlrModel, RejectsBadInputsMaxTriesFirst) {
  PlrModel plr;
  EXPECT_THROW((void)plr.AttemptLoss(0, 10.0), std::invalid_argument);
  EXPECT_THROW((void)plr.RadioLoss(0, 10.0, 3), std::invalid_argument);
  EXPECT_THROW((void)plr.RadioLoss(110, 10.0, 0), std::invalid_argument);
  // With both inputs bad, max_tries is checked before the payload.
  const std::string message =
      InvalidArgumentMessage([&] { (void)plr.RadioLoss(0, 10.0, 0); });
  EXPECT_NE(message.find("max_tries"), std::string::npos) << message;
}

TEST(QueueLoss, FluidEstimate) {
  EXPECT_DOUBLE_EQ(QueueLossEstimate(0.5), 0.0);
  EXPECT_DOUBLE_EQ(QueueLossEstimate(1.0), 0.0);
  EXPECT_NEAR(QueueLossEstimate(2.0), 0.5, 1e-12);
  EXPECT_NEAR(QueueLossEstimate(1.25), 0.2, 1e-12);
  EXPECT_THROW((void)QueueLossEstimate(-0.1), std::invalid_argument);
}

TEST(CombineLoss, IndependentComposition) {
  EXPECT_DOUBLE_EQ(CombineLoss(0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(CombineLoss(1.0, 0.0), 1.0);
  EXPECT_NEAR(CombineLoss(0.5, 0.5), 0.75, 1e-12);
  EXPECT_THROW((void)CombineLoss(-0.1, 0.0), std::invalid_argument);
}

// ------------------------------------------------- service time model ----

TEST(ServiceTime, TableIIRow30dB) {
  // T_pkt=30ms, SNR=30, l_D=110, N=3, D_retry=30ms -> 18.52 ms.
  ServiceTimeModel model;
  ServiceTimeInputs in;
  in.payload_bytes = 110;
  in.snr_db = 30.0;
  in.max_tries = 3;
  in.retry_delay_ms = 30.0;
  EXPECT_NEAR(model.MeanMs(in), 18.52, 0.75);
}

TEST(ServiceTime, TableIIRow20dB) {
  ServiceTimeModel model;
  ServiceTimeInputs in;
  in.payload_bytes = 110;
  in.snr_db = 20.0;
  in.max_tries = 3;
  in.retry_delay_ms = 30.0;
  EXPECT_NEAR(model.MeanMs(in), 21.39, 1.0);
}

TEST(ServiceTime, TableIIRow10dB) {
  ServiceTimeModel model;
  ServiceTimeInputs in;
  in.payload_bytes = 110;
  in.snr_db = 10.0;
  in.max_tries = 3;
  in.retry_delay_ms = 30.0;
  EXPECT_NEAR(model.MeanMs(in), 37.08, 2.0);
}

TEST(ServiceTime, DeliveredLessThanLostOnBadLink) {
  ServiceTimeModel model;
  ServiceTimeInputs in;
  in.payload_bytes = 110;
  in.snr_db = 8.0;
  in.max_tries = 5;
  in.retry_delay_ms = 0.0;
  EXPECT_LT(model.DeliveredMs(in), model.LostMs(in));
  // The mixture lies between the two cases.
  const double mean = model.MeanMs(in);
  EXPECT_GE(mean, model.DeliveredMs(in));
  EXPECT_LE(mean, model.LostMs(in));
}

TEST(ServiceTime, GrowsWithPayloadTriesAndRetryDelay) {
  ServiceTimeModel model;
  ServiceTimeInputs in;
  in.snr_db = 10.0;
  in.max_tries = 3;
  in.payload_bytes = 50;

  auto base = model.MeanMs(in);
  in.payload_bytes = 110;
  EXPECT_GT(model.MeanMs(in), base);

  // The worst case (every attempt exhausted) strictly grows with the retry
  // budget. (The *mean* need not: more tries shift weight from the
  // expensive Eq. 6 branch to the cheaper Eq. 5 branch.)
  const double lost_base = model.LostMs(in);
  in.max_tries = 8;
  EXPECT_GT(model.LostMs(in), lost_base);

  base = model.MeanMs(in);
  in.retry_delay_ms = 60.0;
  EXPECT_GT(model.MeanMs(in), base);
}

TEST(ServiceTime, NoRetransmissionIgnoresRetryDelay) {
  ServiceTimeModel model;
  ServiceTimeInputs a;
  a.payload_bytes = 80;
  a.snr_db = 25.0;
  a.max_tries = 1;
  a.retry_delay_ms = 0.0;
  ServiceTimeInputs b = a;
  b.retry_delay_ms = 100.0;
  // With N=1 there are no retries, but Eq. (5) still charges (N_tries-1)
  // partial retries for the *average* — with N capped at 1 both match.
  EXPECT_NEAR(model.MeanMs(a), model.MeanMs(b), 1e-9);
}

// -------------------------------------------------------- energy model ----

TEST(EnergyModel, Equation2HandComputed) {
  EnergyModel energy;
  // E_tx(31) = 0.2088 uJ/bit; overhead 19 B.
  const double per = PerModel().Per(68, 6.0);
  const double expected = 0.2088 * (19.0 + 68.0) / 68.0 / (1.0 - per);
  EXPECT_NEAR(energy.MicrojoulesPerBit(68, 6.0, 31), expected, 1e-9);
}

TEST(EnergyModel, InfiniteWhenPerSaturates) {
  EnergyModel energy;
  EXPECT_TRUE(std::isinf(energy.MicrojoulesPerBit(114, -20.0, 31)));
}

TEST(EnergyModel, OptimalPayloadIsMaxAboveThreshold) {
  // Sec. IV-B: above ~17 dB the energy-optimal payload is the maximum.
  EnergyModel energy;
  EXPECT_EQ(energy.OptimalPayload(17.0, 31), phy::kMaxPayloadBytes);
  EXPECT_EQ(energy.OptimalPayload(25.0, 31), phy::kMaxPayloadBytes);
}

TEST(EnergyModel, OptimalPayloadShrinksInGreyZone) {
  // Fig. 9: optimal l_D decreases from max to <40 B as SNR drops
  // from 17 dB to 5 dB.
  EnergyModel energy;
  const int at_10 = energy.OptimalPayload(10.0, 31);
  const int at_5 = energy.OptimalPayload(5.0, 31);
  EXPECT_LT(at_10, phy::kMaxPayloadBytes);
  EXPECT_LT(at_5, 45);
  EXPECT_LT(at_5, at_10);
}

// ------------------------------------------------------- goodput model ----

TEST(GoodputModel, MaxPayloadOptimalOutsideGreyZone) {
  GoodputModel goodput;
  EXPECT_EQ(goodput.OptimalPayload(20.0, 8), phy::kMaxPayloadBytes);
  EXPECT_EQ(goodput.OptimalPayload(9.0, 8), phy::kMaxPayloadBytes);
}

TEST(GoodputModel, OptimalPayloadShrinksDeepInGreyZone) {
  GoodputModel goodput;
  const int no_retx = goodput.OptimalPayload(6.0, 1);
  EXPECT_LT(no_retx, phy::kMaxPayloadBytes);
}

TEST(GoodputModel, RetransmissionsGrowOptimalPayload) {
  // Sec. V-C: larger N_maxTries increases the goodput-optimal payload.
  GoodputModel goodput;
  EXPECT_GE(goodput.OptimalPayload(6.0, 8), goodput.OptimalPayload(6.0, 1));
}

TEST(GoodputModel, GoodputIncreasesWithSnr) {
  GoodputModel goodput;
  ServiceTimeInputs in;
  in.payload_bytes = 110;
  in.max_tries = 3;
  double prev = 0.0;
  for (double snr = 5.0; snr <= 30.0; snr += 5.0) {
    in.snr_db = snr;
    const double g = goodput.MaxGoodputKbps(in);
    EXPECT_GT(g, prev);
    prev = g;
  }
  // Saturates near the stack's practical ceiling (well below 250 kbps
  // because of SPI + MAC overheads).
  EXPECT_LT(prev, 60.0);
  EXPECT_GT(prev, 30.0);
}

TEST(GoodputModel, CaseStudyJointPointBeatsBaselines) {
  // The Table IV "our work" configuration at SNR 6 dB.
  GoodputModel goodput;
  ServiceTimeInputs ours;
  ours.payload_bytes = 68;
  ours.snr_db = 6.0;
  ours.max_tries = 3;
  const double g_ours = goodput.MaxGoodputKbps(ours);

  ServiceTimeInputs power_only;  // [11]: max power, l=114, N=1
  power_only.payload_bytes = 114;
  power_only.snr_db = 6.0;
  power_only.max_tries = 1;
  const double g_power = goodput.MaxGoodputKbps(power_only);

  EXPECT_GT(g_ours, g_power);
  // Magnitudes in the paper's ballpark (22.28 vs 15.39 kbps).
  EXPECT_NEAR(g_ours, 22.3, 4.0);
}

// --------------------------------------------------------- delay model ----

TEST(DelayModel, TableIIUtilization) {
  DelayModel delay;
  ServiceTimeInputs in;
  in.payload_bytes = 110;
  in.max_tries = 3;
  in.retry_delay_ms = 30.0;

  in.snr_db = 10.0;
  EXPECT_NEAR(delay.Utilization(in, 30.0), 1.236, 0.08);
  EXPECT_FALSE(delay.Stable(in, 30.0));

  in.snr_db = 20.0;
  EXPECT_NEAR(delay.Utilization(in, 30.0), 0.713, 0.04);
  EXPECT_TRUE(delay.Stable(in, 30.0));

  in.snr_db = 30.0;
  EXPECT_NEAR(delay.Utilization(in, 30.0), 0.617, 0.03);
}

TEST(DelayModel, QueueWaitExplodesTowardsSaturation) {
  DelayModel delay;
  ServiceTimeInputs in;
  in.payload_bytes = 110;
  in.snr_db = 25.0;
  in.max_tries = 3;
  const double t_service = delay.Service().MeanMs(in);

  const double relaxed = delay.QueueWaitMs(in, t_service * 2.0, 30);
  const double tight = delay.QueueWaitMs(in, t_service * 1.02, 30);
  EXPECT_GT(tight, 5.0 * relaxed);
}

TEST(DelayModel, SaturatedDelayScalesWithQueueCapacity) {
  DelayModel delay;
  ServiceTimeInputs in;
  in.payload_bytes = 110;
  in.snr_db = 10.0;
  in.max_tries = 8;
  // rho > 1 at T_pkt = 10 ms.
  ASSERT_FALSE(delay.Stable(in, 10.0));
  const double q1 = delay.TotalDelayMs(in, 10.0, 1);
  const double q30 = delay.TotalDelayMs(in, 10.0, 30);
  // Fig. 15: Qmax=30 delays are orders of magnitude above Qmax=1.
  EXPECT_GT(q30, 10.0 * q1);
}

TEST(DelayModel, MaxStableTries) {
  DelayModel delay;
  // Generous interval: all 8 tries stable.
  EXPECT_EQ(delay.MaxStableTries(50, 25.0, 0.0, 500.0), 8);
  // Impossible interval: not even one.
  EXPECT_EQ(delay.MaxStableTries(110, 25.0, 0.0, 5.0), 0);
}

// ----------------------------------------------------------- model set ----

/// Every field of a prediction as raw bits, so NaN, infinities and
/// signed zeros compare exactly.
std::array<std::uint64_t, 11> Bits(const MetricPrediction& p) {
  return {std::bit_cast<std::uint64_t>(p.snr_db),
          std::bit_cast<std::uint64_t>(p.per),
          std::bit_cast<std::uint64_t>(p.mean_tries),
          std::bit_cast<std::uint64_t>(p.service_time_ms),
          std::bit_cast<std::uint64_t>(p.utilization),
          std::bit_cast<std::uint64_t>(p.energy_uj_per_bit),
          std::bit_cast<std::uint64_t>(p.max_goodput_kbps),
          std::bit_cast<std::uint64_t>(p.total_delay_ms),
          std::bit_cast<std::uint64_t>(p.plr_radio),
          std::bit_cast<std::uint64_t>(p.plr_queue),
          std::bit_cast<std::uint64_t>(p.plr_total)};
}

TEST(ModelSet, PredictionFieldsConsistent) {
  // Predict, the composition of the link and traffic terms, gives the very
  // bits of each model's own entry point, for every Table I configuration
  // at one distance, at the derived SNR and at fixed SNRs.
  const ModelSet models;
  auto space = opt::ConfigSpace::PaperTableI();
  space.distances_m = {30.0};
  for (std::size_t i = 0; i < space.Size(); ++i) {
    const StackConfig config = space.At(i);
    const double snrs[] = {
        models.LinkQuality().SnrDb(config.pa_level, config.distance_m), -20.0,
        0.0, 6.0, 12.0, 40.0};
    for (std::size_t k = 0; k < std::size(snrs); ++k) {
      const double snr = snrs[k];
      ServiceTimeInputs in;
      in.payload_bytes = config.payload_bytes;
      in.snr_db = snr;
      in.max_tries = config.max_tries;
      in.retry_delay_ms = config.retry_delay_ms;
      const double t_pkt = config.pkt_interval_ms;
      MetricPrediction want;
      want.snr_db = snr;
      want.per = models.Per().Per(config.payload_bytes, snr);
      want.mean_tries = models.Ntries().MeanTriesTruncated(
          config.payload_bytes, snr, config.max_tries);
      want.service_time_ms = models.Service().MeanMs(in);
      want.utilization = models.Delay().Utilization(in, t_pkt);
      want.energy_uj_per_bit = models.Energy().MicrojoulesPerBit(
          config.payload_bytes, snr, config.pa_level);
      want.max_goodput_kbps = models.Goodput().MaxGoodputKbps(in);
      want.total_delay_ms =
          models.Delay().TotalDelayMs(in, t_pkt, config.queue_capacity);
      want.plr_radio =
          models.Plr().RadioLoss(config.payload_bytes, snr, config.max_tries);
      want.plr_queue = QueueLossEstimate(want.utilization);
      want.plr_total = CombineLoss(want.plr_queue, want.plr_radio);
      const MetricPrediction got = k == 0 ? models.Predict(config)
                                          : models.PredictAtSnr(config, snr);
      ASSERT_EQ(Bits(got), Bits(want)) << config.ToString() << " snr " << snr;
    }
  }
}

TEST(ModelSet, PredictAtSnrOverridesPlacement) {
  ModelSet models;
  StackConfig config;
  const auto a = models.PredictAtSnr(config, 10.0);
  const auto b = models.PredictAtSnr(config, 25.0);
  EXPECT_GT(a.per, b.per);
  EXPECT_DOUBLE_EQ(a.snr_db, 10.0);
}

TEST(ModelSet, SummaryTableMentionsAllModels) {
  const std::string summary = ModelSet().SummaryTable();
  for (const char* token : {"Eq. 2", "Eq. 3", "Eq. 4", "Eq. 7", "Eq. 8"}) {
    EXPECT_NE(summary.find(token), std::string::npos) << token;
  }
}

// -------------------------------------------------------- link quality ----

TEST(LinkQuality, SnrDecreasesWithDistanceIncreasesWithPower) {
  LinkQualityMap lq;
  EXPECT_GT(lq.SnrDb(31, 10.0), lq.SnrDb(31, 35.0));
  EXPECT_GT(lq.SnrDb(31, 20.0), lq.SnrDb(3, 20.0));
}

TEST(LinkQuality, MinPaLevelForSnr) {
  LinkQualityMap lq;
  const int level = lq.MinPaLevelForSnr(20.0, 19.0);
  ASSERT_GT(level, 0);
  EXPECT_GE(lq.SnrDb(level, 20.0), 19.0);
  // The next lower level (if any) must fall short.
  if (level > 3) {
    EXPECT_LT(lq.SnrDb(level - 4, 20.0), 19.0);
  }
  // Far away, even max power may fail a high target.
  EXPECT_EQ(lq.MinPaLevelForSnr(35.0, 25.0), -1);
}

TEST(LinkQuality, PaperCaseStudyAnchor) {
  // The case-study link has ~6 dB SNR at max power: a deeply shadowed
  // 35 m placement (-17 dB spatial fade) in our calibrated hallway.
  LinkQualityMap lq(channel::PathLossParams{}, -95.0, -17.0);
  EXPECT_NEAR(lq.SnrDb(31, 35.0), 6.0, 1.5);
}

}  // namespace
}  // namespace wsnlink::core::models
