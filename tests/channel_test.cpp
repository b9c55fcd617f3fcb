// Unit + statistical tests for the channel substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "channel/ber.h"
#include "channel/channel.h"
#include "channel/medium.h"
#include "channel/noise.h"
#include "channel/path_loss.h"
#include "channel/shadowing.h"
#include "phy/frame.h"
#include "sim/time.h"
#include "util/rng.h"
#include "util/stats.h"

namespace wsnlink::channel {
namespace {

// ----------------------------------------------------------- path loss ----

TEST(PathLoss, ReferenceDistanceLoss) {
  PathLoss pl(PathLossParams{});
  EXPECT_DOUBLE_EQ(pl.MeanLossDb(1.0), 38.0);
}

TEST(PathLoss, TenXDistanceAddsTenNdB) {
  PathLossParams params;
  params.exponent = 2.19;
  PathLoss pl(params);
  EXPECT_NEAR(pl.MeanLossDb(10.0) - pl.MeanLossDb(1.0), 21.9, 1e-9);
  EXPECT_NEAR(pl.MeanLossDb(20.0) - pl.MeanLossDb(2.0), 21.9, 1e-9);
}

TEST(PathLoss, MonotonicInDistance) {
  PathLoss pl(PathLossParams{});
  double prev = -1e9;
  for (double d = 1.0; d <= 40.0; d += 0.5) {
    const double loss = pl.MeanLossDb(d);
    EXPECT_GT(loss, prev);
    prev = loss;
  }
}

TEST(PathLoss, RssiIsTxMinusLoss) {
  PathLoss pl(PathLossParams{});
  EXPECT_NEAR(pl.MeanRssiDbm(0.0, 35.0), -(38.0 + 21.9 * std::log10(35.0)),
              1e-9);
}

TEST(PathLoss, SpatialShadowHasConfiguredSigma) {
  PathLoss pl(PathLossParams{});
  util::Rng rng(3);
  util::RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(pl.SampleSpatialShadow(rng));
  EXPECT_NEAR(stats.Mean(), 0.0, 0.08);
  EXPECT_NEAR(stats.StdDev(), 3.2, 0.08);
}

TEST(PathLoss, RejectsInvalidParams) {
  PathLossParams bad;
  bad.exponent = 0.0;
  EXPECT_THROW(PathLoss{bad}, std::invalid_argument);
  PathLoss good{PathLossParams{}};
  EXPECT_THROW((void)good.MeanLossDb(0.0), std::invalid_argument);
}

// ----------------------------------------------------------- shadowing ----

TEST(Shadowing, StationarySigmaMatches) {
  ShadowingParams params;
  params.sigma_db = 2.0;
  params.coherence = 100 * sim::kMillisecond;
  ShadowingProcess process(params, util::Rng(4));
  util::RunningStats stats;
  // Sample far apart (10x coherence) for near-independent draws.
  for (int i = 0; i < 5000; ++i) {
    stats.Add(process.Sample(static_cast<sim::Time>(i) * sim::kSecond));
  }
  EXPECT_NEAR(stats.Mean(), 0.0, 0.15);
  EXPECT_NEAR(stats.StdDev(), 2.0, 0.15);
}

TEST(Shadowing, CloseSamplesAreCorrelated) {
  ShadowingParams params;
  params.sigma_db = 2.0;
  params.coherence = 2 * sim::kSecond;
  ShadowingProcess process(params, util::Rng(5));
  // Consecutive samples 1 ms apart should barely move.
  const double first = process.Sample(0);
  const double second = process.Sample(sim::kMillisecond);
  EXPECT_NEAR(first, second, 0.5);
}

TEST(Shadowing, TimeMovingBackwardsThrows) {
  ShadowingProcess process(ShadowingParams{}, util::Rng(6));
  (void)process.Sample(1000);
  EXPECT_THROW((void)process.Sample(500), std::logic_error);
}

TEST(Shadowing, DefaultSigmaLargestAt35m) {
  EXPECT_GT(DefaultTemporalSigmaDb(35.0), DefaultTemporalSigmaDb(20.0));
  EXPECT_GT(DefaultTemporalSigmaDb(35.0), DefaultTemporalSigmaDb(30.0));
  EXPECT_DOUBLE_EQ(DefaultTemporalSigmaDb(10.0), DefaultTemporalSigmaDb(20.0));
}

TEST(Shadowing, ZeroSigmaIsConstantZeroProcess) {
  ShadowingParams params;
  params.sigma_db = 0.0;
  ShadowingProcess process(params, util::Rng(7));
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(process.Sample(i * sim::kSecond), 0.0);
  }
}

// The zero-interval shortcut and the coefficient memo return the doubles
// the AR(1) formula gives, and keep the stream where the formula leaves it.
TEST(Shadowing, ZeroAndRepeatedIntervalsMatchTheFormula) {
  ShadowingParams params;
  params.sigma_db = 2.8;
  ShadowingProcess process(params, util::Rng(8));
  util::Rng rng(8);
  double value = rng.Gaussian(0.0, params.sigma_db);
  EXPECT_EQ(process.Sample(1'000), value);
  sim::Time now = 1'000;
  for (const sim::Duration dt : {0, 3'616, 3'616, 0, 0, 3'616, 250'000, 0}) {
    const double rho = std::exp(-static_cast<double>(dt) /
                                static_cast<double>(params.coherence));
    const double sigma =
        params.sigma_db * std::sqrt(std::max(0.0, 1.0 - rho * rho));
    value = rho * value + rng.Gaussian(0.0, sigma);
    now += dt;
    EXPECT_EQ(process.Sample(now), value) << "at " << now;
  }
}

// ------------------------------------------------------------- noise ----

TEST(Noise, MeanNearMinus95) {
  NoiseFloorProcess process(NoiseParams{}, util::Rng(8));
  util::RunningStats stats;
  for (int i = 0; i < 200000; ++i) {
    stats.Add(process.SampleDbm(static_cast<sim::Time>(i) * 500));
  }
  EXPECT_NEAR(stats.Mean(), -95.0, 0.5);
}

TEST(Noise, DistributionIsRightSkewed) {
  // Interference bursts push samples up, so mean > median.
  NoiseFloorProcess process(NoiseParams{}, util::Rng(9));
  std::vector<double> samples;
  for (int i = 0; i < 100000; ++i) {
    samples.push_back(process.SampleDbm(static_cast<sim::Time>(i) * 500));
  }
  EXPECT_GT(util::Mean(samples), util::Median(samples));
}

TEST(Noise, NoBurstsWhenRateZero) {
  NoiseParams params;
  params.burst_rate_hz = 0.0;
  NoiseFloorProcess process(params, util::Rng(10));
  for (int i = 0; i < 1000; ++i) {
    EXPECT_FALSE(process.InterferenceActive(i * sim::kSecond));
  }
}

TEST(Noise, BurstsOccurAtConfiguredRate) {
  NoiseParams params;
  params.burst_rate_hz = 2.0;
  params.burst_mean_duration = 50 * sim::kMillisecond;
  NoiseFloorProcess process(params, util::Rng(11));
  int active = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (process.InterferenceActive(static_cast<sim::Time>(i) * 1000)) ++active;
  }
  // Duty cycle ~ rate * duration = 0.1.
  EXPECT_NEAR(static_cast<double>(active) / n, 0.1, 0.035);
}

// --------------------------------------------------------------- BER ----

TEST(Ber, AnalyticCurveIsMonotoneDecreasing) {
  AnalyticOQpskBer ber;
  double prev = 1.0;
  for (double snr = -5.0; snr <= 15.0; snr += 0.5) {
    const double b = ber.BitErrorRate(snr);
    EXPECT_LE(b, prev + 1e-12);
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 0.5);
    prev = b;
  }
}

TEST(Ber, AnalyticCliffIsSharp) {
  // The textbook DSSS curve collapses over a few dB.
  AnalyticOQpskBer ber;
  EXPECT_GT(ber.BitErrorRate(-2.0), 2e-3);
  EXPECT_LT(ber.BitErrorRate(6.0), 1e-8);
}

TEST(Ber, CalibratedMatchesPaperPerModelAtAttemptLevel) {
  // One attempt = 19 B overhead + payload data frame, plus an 11 B ACK.
  // For large payloads the attempt failure probability must approximate
  // the paper's Eq. (3): 0.0128 * l * exp(-0.15 snr).
  CalibratedExponentialBer ber;
  for (const double l : {80.0, 110.0}) {
    for (double snr = 12.0; snr <= 22.0; snr += 2.0) {
      const double data_fail =
          1.0 - ber.FrameSuccessProbability(snr, static_cast<int>(l) + 19);
      const double ack_fail = 1.0 - ber.FrameSuccessProbability(snr, 11);
      const double attempt_fail =
          1.0 - (1.0 - data_fail) * (1.0 - ack_fail);
      const double per_paper = 0.0128 * l * std::exp(-0.15 * snr);
      EXPECT_NEAR(attempt_fail, per_paper, 0.25 * per_paper)
          << "l=" << l << " snr=" << snr;
    }
  }
}

TEST(Ber, CalibratedFrameLossLinearInBytes) {
  // The empirical law: loss scales linearly with frame size (Eq. 3's
  // shape), not as an independent-bit-error power.
  CalibratedExponentialBer ber;
  const double loss1 = 1.0 - ber.FrameSuccessProbability(15.0, 50);
  const double loss2 = 1.0 - ber.FrameSuccessProbability(15.0, 100);
  EXPECT_NEAR(loss2, 2.0 * loss1, 1e-9);
  // And saturates at total loss instead of going negative.
  EXPECT_DOUBLE_EQ(ber.FrameSuccessProbability(-30.0, 127), 0.0);
}

TEST(Ber, AnalyticFrameSuccessComposesBitErrors) {
  AnalyticOQpskBer ber;
  const double p1 = ber.FrameSuccessProbability(1.0, 50);
  const double p2 = ber.FrameSuccessProbability(1.0, 100);
  EXPECT_NEAR(p2, p1 * p1, 1e-9);
}

TEST(Ber, CalibratedCurveSmootherThanAnalytic) {
  // Span of SNR taking PER(133B frame) from 0.9 to 0.1 is wider for the
  // calibrated curve — the paper's observed smooth grey zone.
  const auto transition_width = [](const BerModel& ber) {
    double snr_90 = 0.0;
    double snr_10 = 0.0;
    for (double snr = -10.0; snr < 40.0; snr += 0.01) {
      const double per = 1.0 - ber.FrameSuccessProbability(snr, 133);
      if (per > 0.9) snr_90 = snr;
      if (per > 0.1) snr_10 = snr;
    }
    return snr_10 - snr_90;
  };
  EXPECT_GT(transition_width(CalibratedExponentialBer()),
            3.0 * transition_width(AnalyticOQpskBer()));
}

TEST(Ber, InvalidConstruction) {
  EXPECT_THROW(CalibratedExponentialBer(0.0, -0.1), std::invalid_argument);
  EXPECT_THROW(CalibratedExponentialBer(0.1, 0.1), std::invalid_argument);
  CalibratedExponentialBer ok;
  EXPECT_THROW((void)ok.FrameSuccessProbability(10.0, 0),
               std::invalid_argument);
}

// ------------------------------------------------------------ channel ----

ChannelConfig TestConfig(double distance) {
  ChannelConfig config;
  config.distance_m = distance;
  return config;
}

TEST(Channel, MeanRssiFollowsPathLoss) {
  Channel ch(TestConfig(20.0), util::Rng(12));
  const double expected = 0.0 - (38.0 + 21.9 * std::log10(20.0));
  EXPECT_NEAR(ch.MeanRssiDbm(0.0), expected, 1e-9);
  EXPECT_NEAR(ch.MeanSnrDb(0.0), expected + 95.6, 1e-9);
}

TEST(Channel, StrongLinkDeliversAlmostEverything) {
  Channel ch(TestConfig(5.0), util::Rng(13));
  int delivered = 0;
  for (int i = 0; i < 2000; ++i) {
    const auto out = ch.Transmit(0.0, 133, static_cast<sim::Time>(i) * 10000);
    if (out.received) ++delivered;
  }
  EXPECT_GT(delivered, 1900);
}

TEST(Channel, BelowSensitivityNothingArrives) {
  ChannelConfig config = TestConfig(35.0);
  Channel ch(config, util::Rng(14));
  // -25 dBm at 35 m: RSSI ~= -98.7 dBm, below the -97 dBm sensitivity.
  int delivered = 0;
  for (int i = 0; i < 500; ++i) {
    const auto out =
        ch.Transmit(-25.0, 20, static_cast<sim::Time>(i) * 10000);
    if (out.received) ++delivered;
  }
  EXPECT_LT(delivered, 100);  // only shadowing excursions can save a frame
}

TEST(Channel, PerIncreasesWithFrameSize) {
  // Medium link: larger frames fail more often.
  const auto loss_rate = [](int frame_bytes) {
    Channel ch(TestConfig(30.0), util::Rng(15));
    int lost = 0;
    const int n = 4000;
    for (int i = 0; i < n; ++i) {
      const auto out =
          ch.Transmit(-10.0, frame_bytes, static_cast<sim::Time>(i) * 5000);
      if (!out.received) ++lost;
    }
    return static_cast<double>(lost) / n;
  };
  EXPECT_GT(loss_rate(130), loss_rate(25) + 0.02);
}

TEST(Channel, SnrIsRssiMinusNoise) {
  Channel ch(TestConfig(20.0), util::Rng(16));
  const auto out = ch.Transmit(0.0, 50, 0);
  EXPECT_NEAR(out.snr_db, out.rssi_dbm - out.noise_dbm, 1e-12);
}

TEST(Channel, LqiCorrelatesWithSnr) {
  Channel strong(TestConfig(5.0), util::Rng(17));
  Channel weak(TestConfig(35.0), util::Rng(17));
  util::RunningStats lqi_strong;
  util::RunningStats lqi_weak;
  for (int i = 0; i < 500; ++i) {
    lqi_strong.Add(strong.Transmit(0.0, 50, i * 10000).lqi);
    lqi_weak.Add(weak.Transmit(-15.0, 50, i * 10000).lqi);
  }
  EXPECT_GT(lqi_strong.Mean(), lqi_weak.Mean() + 10.0);
}

TEST(Channel, DeterministicForSameSeed) {
  Channel a(TestConfig(25.0), util::Rng(18));
  Channel b(TestConfig(25.0), util::Rng(18));
  for (int i = 0; i < 200; ++i) {
    const auto oa = a.Transmit(-5.0, 70, i * 1000);
    const auto ob = b.Transmit(-5.0, 70, i * 1000);
    EXPECT_EQ(oa.received, ob.received);
    EXPECT_DOUBLE_EQ(oa.rssi_dbm, ob.rssi_dbm);
    EXPECT_DOUBLE_EQ(oa.snr_db, ob.snr_db);
    EXPECT_EQ(oa.lqi, ob.lqi);
  }
}

TEST(Channel, NullBerModelRejected) {
  EXPECT_THROW(Channel(TestConfig(10.0), nullptr, util::Rng(1)),
               std::invalid_argument);
}

TEST(Channel, SpatialShadowShiftsMeanRssi) {
  ChannelConfig config = TestConfig(20.0);
  config.spatial_shadow_db = 5.0;
  Channel shifted(config, util::Rng(19));
  Channel base(TestConfig(20.0), util::Rng(19));
  EXPECT_NEAR(shifted.MeanRssiDbm(0.0) - base.MeanRssiDbm(0.0), 5.0, 1e-12);
}

/// Channels that differ only in how some frames are resolved must agree on
/// every outcome read afterwards: the shortcuts advance every stream (and
/// the medium's tallies) exactly as Transmit does.
void ExpectShortcutsKeepStreams(const ChannelConfig& config,
                                bool with_medium) {
  Medium medium_full;
  Medium medium_short;
  Channel full(config, util::Rng(31));
  Channel shortcut(config, util::Rng(31));
  if (with_medium) {
    full.AttachMedium(&medium_full, 0);
    shortcut.AttachMedium(&medium_short, 0);
  }
  for (int i = 0; i < 3'000; ++i) {
    const sim::Time t = static_cast<sim::Time>(i + 1) * 3'616;
    if (with_medium && i % 3 == 0) {
      // Another node's frame overlapping this one's air.
      medium_full.Begin(1, t - 2'000, t + 500, -60.0 - i % 40);
      medium_short.Begin(1, t - 2'000, t + 500, -60.0 - i % 40);
    }
    const double tx_dbm = -25.0 + i % 26;
    const auto reference = full.Transmit(tx_dbm, 70, t);
    switch (i % 4) {
      case 0: {
        const auto out = shortcut.Transmit(tx_dbm, 70, t);
        ASSERT_EQ(out.received, reference.received) << "frame " << i;
        ASSERT_EQ(out.rssi_dbm, reference.rssi_dbm) << "frame " << i;
        ASSERT_EQ(out.snr_db, reference.snr_db) << "frame " << i;
        ASSERT_EQ(out.lqi, reference.lqi) << "frame " << i;
        break;
      }
      case 1:
        ASSERT_EQ(shortcut.Received(tx_dbm, 70, t), reference.received)
            << "frame " << i;
        break;
      default:
        shortcut.TransmitUnheard(tx_dbm, 70, t);
        break;
    }
    // An ACK at the frame's end: zero shadowing interval.
    ASSERT_EQ(shortcut.Received(tx_dbm, 11, t),
              full.Transmit(tx_dbm, 11, t).received)
        << "ack " << i;
  }
  EXPECT_EQ(medium_short.Stats().collisions, medium_full.Stats().collisions);
  EXPECT_EQ(medium_short.Stats().captures, medium_full.Stats().captures);
}

TEST(Channel, ShortcutsKeepStreamsOnAPlainLink) {
  ExpectShortcutsKeepStreams(TestConfig(30.0), false);
}

TEST(Channel, ShortcutsKeepStreamsWithAnInterferer) {
  ChannelConfig config = TestConfig(30.0);
  config.interferer.duty_cycle = 0.3;
  ExpectShortcutsKeepStreams(config, false);
}

TEST(Channel, ShortcutsKeepStreamsWithMobility) {
  ChannelConfig config = TestConfig(30.0);
  config.mobility.speed_mps = 1.5;
  ExpectShortcutsKeepStreams(config, false);
}

TEST(Channel, ShortcutsKeepStreamsOnASharedMedium) {
  ExpectShortcutsKeepStreams(TestConfig(30.0), true);
}

// -------------------------------------------------------------- medium ----

struct LedgerFrame {
  int node;
  sim::Time start;
  sim::Time end;
};

// The definition BusyAt must agree with: another node's frame covers t.
bool BruteForceBusy(const std::vector<LedgerFrame>& frames, sim::Time t,
                    int listener) {
  for (const LedgerFrame& f : frames) {
    if (f.node != listener && f.start <= t && t < f.end) return true;
  }
  return false;
}

TEST(Medium, BusyAtMatchesBruteForceScan) {
  constexpr int kNodes = 5;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    Medium medium;
    std::vector<LedgerFrame> frames;
    std::uint64_t busy = 0;
    sim::Time now = 0;
    for (int step = 0; step < 400; ++step) {
      // Frames from a handful of nodes, often several on the air at once,
      // with lengths from an ACK's to the longest data frame's airtime.
      now += rng.UniformInt(0, 3'000);
      if (rng.NextDouble() < 0.6) {
        const auto node = static_cast<int>(rng.UniformInt(0, kNodes - 1));
        const sim::Time end = now + rng.UniformInt(352, 4'256);
        medium.Begin(node, now, end, -60.0);
        frames.push_back({node, now, end});
      }
      // Query at the latest start and after it, as a CCA run ahead of its
      // event time does.
      for (const sim::Duration ahead : {sim::Duration{0}, sim::Duration{1},
                                        rng.UniformInt(0, 5'000)}) {
        for (int listener = 0; listener < kNodes; ++listener) {
          const sim::Time t = now + ahead;
          const bool expected = BruteForceBusy(frames, t, listener);
          busy += expected ? 1 : 0;
          EXPECT_EQ(medium.BusyAt(t, listener), expected)
              << "seed " << seed << " t " << t << " listener " << listener;
          EXPECT_EQ(t < medium.BusyUntil(listener), expected)
              << "seed " << seed << " t " << t << " listener " << listener;
        }
      }
    }
    EXPECT_EQ(medium.Stats().busy_hits, busy) << "seed " << seed;
    EXPECT_EQ(medium.Stats().frames, frames.size()) << "seed " << seed;
  }
}

// The overlap scan stops one longest-frame airtime before the query window,
// so the bound must be the longest frame's real airtime, and no registered
// frame may outlast it.
TEST(Medium, LongestFrameAirtimeBoundsEveryFrame) {
  EXPECT_EQ(Medium::kLongestFrameAirtime,
            phy::AirTime(phy::kMaxMpduBytes + phy::kPhyOverheadBytes));
  EXPECT_EQ(Medium::kLongestFrameAirtime,
            phy::DataFrameAirTime(phy::kMaxPayloadBytes));
  Medium medium;
  medium.Begin(0, 1'000, 1'000 + Medium::kLongestFrameAirtime, -60.0);
  EXPECT_THROW(
      medium.Begin(1, 2'000, 2'001 + Medium::kLongestFrameAirtime, -60.0),
      std::invalid_argument);
  EXPECT_EQ(medium.Stats().frames, 1u);
}

// The definition StrongestOverlapDbm must agree with: the strongest frame
// of another node overlapping the open interval (start, end).
std::optional<double> BruteForceStrongest(
    const std::vector<LedgerFrame>& frames, const std::vector<double>& rssi,
    sim::Time start, sim::Time end, int node) {
  std::optional<double> strongest;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    const LedgerFrame& f = frames[i];
    if (f.node != node && f.start < end && f.end > start &&
        (!strongest || rssi[i] > *strongest)) {
      strongest = rssi[i];
    }
  }
  return strongest;
}

TEST(Medium, StrongestOverlapMatchesBruteForceScan) {
  constexpr int kNodes = 12;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    util::Rng rng(seed);
    Medium medium;
    std::vector<LedgerFrame> frames;
    std::vector<double> rssi;
    sim::Time now = 0;
    int overlaps = 0;
    for (int step = 0; step < 1'500; ++step) {
      // Dense traffic: often a dozen frames on the air, from ACK length to
      // the longest frame, so the window cuts a long retained list.
      now += rng.UniformInt(0, 600);
      if (rng.NextDouble() < 0.7) {
        const auto node = static_cast<int>(rng.UniformInt(0, kNodes - 1));
        const sim::Time end =
            now + rng.UniformInt(352, Medium::kLongestFrameAirtime);
        const double dbm = -90.0 + rng.NextDouble() * 40.0;
        medium.Begin(node, now, end, dbm);
        frames.push_back({node, now, end});
        rssi.push_back(dbm);
      }
      // A reception resolved at or after the latest start looks back over
      // its own airtime, as Channel::Transmit does.
      const sim::Time at = now + rng.UniformInt(0, 5'000);
      const sim::Time from =
          at - rng.UniformInt(352, Medium::kLongestFrameAirtime);
      const auto node = static_cast<int>(rng.UniformInt(0, kNodes - 1));
      const auto expected = BruteForceStrongest(frames, rssi, from, at, node);
      overlaps += expected ? 1 : 0;
      ASSERT_EQ(medium.StrongestOverlapDbm(from, at, node), expected)
          << "seed " << seed << " step " << step;
    }
    EXPECT_GT(overlaps, 500) << "seed " << seed;
  }
}

TEST(Medium, NodeNeverHearsItself) {
  Medium medium;
  medium.Begin(3, 100, 500, -60.0);
  EXPECT_FALSE(medium.BusyAt(200, 3));
  EXPECT_TRUE(medium.BusyAt(200, 4));
  // Its own later frame does not hide another node's earlier one.
  medium.Begin(4, 300, 400, -60.0);
  medium.Begin(3, 350, 900, -60.0);
  EXPECT_TRUE(medium.BusyAt(360, 3));
  EXPECT_FALSE(medium.BusyAt(400, 3));
  EXPECT_TRUE(medium.BusyAt(400, 4));
  EXPECT_EQ(medium.BusyUntil(3), 400);
  EXPECT_EQ(medium.BusyUntil(4), 900);
}

TEST(Medium, FrameIsBusyFromItsStartUntilBeforeItsEnd) {
  Medium medium;
  medium.Begin(0, 1'000, 2'000, -60.0);
  EXPECT_TRUE(medium.BusyAt(1'000, 1));
  EXPECT_TRUE(medium.BusyAt(1'999, 1));
  EXPECT_FALSE(medium.BusyAt(2'000, 1));
  EXPECT_EQ(medium.BusyUntil(1), 2'000);
  EXPECT_EQ(medium.BusyUntil(0), 0);
}

TEST(Medium, BusyHitsCountOnlyBusyVerdicts) {
  Medium medium;
  medium.Begin(0, 0, 1'000, -60.0);
  EXPECT_TRUE(medium.BusyAt(10, 1));
  EXPECT_FALSE(medium.BusyAt(10, 0));
  EXPECT_FALSE(medium.BusyAt(1'000, 1));
  EXPECT_TRUE(medium.BusyAt(999, 2));
  EXPECT_EQ(medium.Stats().busy_hits, 2u);
  // BusyUntil and StrongestOverlapDbm are queries, not carrier sense.
  (void)medium.BusyUntil(1);
  (void)medium.StrongestOverlapDbm(0, 1'000, 1);
  EXPECT_EQ(medium.Stats().busy_hits, 2u);
}

TEST(Medium, StrongestOverlapUsesTheOpenInterval) {
  Medium medium;
  medium.Begin(0, 0, 1'000, -70.0);
  medium.Begin(1, 500, 1'500, -60.0);
  medium.Begin(2, 600, 700, -50.0);
  // Frames that only touch an endpoint do not overlap.
  EXPECT_FALSE(medium.StrongestOverlapDbm(1'500, 2'000, 3).has_value());
  EXPECT_FALSE(medium.StrongestOverlapDbm(-500, 0, 3).has_value());
  EXPECT_EQ(medium.StrongestOverlapDbm(1'000, 1'600, 3), -60.0);
  EXPECT_EQ(medium.StrongestOverlapDbm(0, 501, 3), -60.0);
  EXPECT_EQ(medium.StrongestOverlapDbm(0, 500, 3), -70.0);
  // The strongest overlapping frame of another node wins.
  EXPECT_EQ(medium.StrongestOverlapDbm(650, 660, 3), -50.0);
  EXPECT_EQ(medium.StrongestOverlapDbm(650, 660, 2), -60.0);
  EXPECT_EQ(medium.StrongestOverlapDbm(1'000, 1'500, 1), std::nullopt);
}

// Expects `fn` to throw std::logic_error itself, not a subclass such as
// std::invalid_argument, with a message naming `what`.
template <typename Fn>
void ExpectLogicError(Fn fn, const std::string& what) {
  try {
    fn();
    ADD_FAILURE() << "no throw: " << what;
  } catch (const std::invalid_argument& e) {
    ADD_FAILURE() << "invalid_argument instead of logic_error: " << e.what();
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(Medium, OutOfOrderStartsAndQueriesThrow) {
  Medium medium;
  medium.Begin(0, 1'000, 2'000, -60.0);
  ExpectLogicError([&medium] { medium.Begin(1, 999, 1'500, -60.0); },
                   "Medium::Begin");
  ExpectLogicError([&medium] { (void)medium.BusyAt(999, 1); },
                   "Medium::BusyAt");
  // Equal times are in order; the failed calls changed nothing.
  medium.Begin(1, 1'000, 1'200, -60.0);
  EXPECT_TRUE(medium.BusyAt(1'000, 1));
  EXPECT_EQ(medium.Stats().frames, 2u);
  EXPECT_EQ(medium.Stats().busy_hits, 1u);
  EXPECT_THROW(medium.Begin(2, 1'500, 1'500, -60.0), std::invalid_argument);
}

}  // namespace
}  // namespace wsnlink::channel
