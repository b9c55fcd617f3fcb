// Tests for metric extraction and SNR-bucketed aggregation.
#include <gtest/gtest.h>

#include "metrics/aggregate.h"
#include "metrics/link_metrics.h"
#include "node/link_simulation.h"

namespace wsnlink::metrics {
namespace {

node::SimulationOptions Options(double distance, int pa_level, int tries,
                                int queue, double interval, int payload,
                                int packets, std::uint64_t seed) {
  node::SimulationOptions options;
  options.config.distance_m = distance;
  options.config.pa_level = pa_level;
  options.config.max_tries = tries;
  options.config.queue_capacity = queue;
  options.config.pkt_interval_ms = interval;
  options.config.payload_bytes = payload;
  options.packet_count = packets;
  options.seed = seed;
  return options;
}

TEST(LinkMetrics, ConservationOfPackets) {
  // generated = delivered + queue drops + radio losses (as fractions).
  const auto options = Options(30.0, 11, 3, 5, 40.0, 80, 500, 1);
  const auto result = node::RunLinkSimulation(options);
  const auto m = ComputeMetrics(result, options.config.pkt_interval_ms);

  const double recon = (1.0 - m.plr_queue) * (1.0 - m.plr_radio);
  const double delivered_frac =
      static_cast<double>(m.delivered_unique) / m.generated;
  EXPECT_NEAR(recon, delivered_frac, 1e-9);
  EXPECT_NEAR(m.plr_total, 1.0 - delivered_frac, 1e-9);
}

TEST(LinkMetrics, StrongLinkIsClean) {
  const auto options = Options(10.0, 31, 3, 10, 50.0, 60, 300, 2);
  const auto m = MeasureConfig(options);
  EXPECT_EQ(m.generated, 300);
  // An interference burst can occasionally defeat even a strong link.
  EXPECT_GE(m.delivered_unique, 298u);
  EXPECT_LT(m.per, 0.02);
  EXPECT_NEAR(m.mean_tries_acked, 1.0, 0.02);
  EXPECT_DOUBLE_EQ(m.plr_queue, 0.0);
  EXPECT_LT(m.plr_radio, 0.01);
  EXPECT_GT(m.goodput_kbps, 0.0);
  EXPECT_GT(m.mean_delay_ms, 0.0);
  EXPECT_LT(m.mean_delay_ms, m.mean_service_ms);  // delivery precedes ACK
  EXPECT_GT(m.energy_uj_per_bit, 0.2);            // >= raw E_tx at level 31
  EXPECT_LT(m.energy_uj_per_bit, 0.35);
}

TEST(LinkMetrics, EnergyPerBitReflectsOverheadAmortisation) {
  // Small payloads pay proportionally more overhead energy per bit.
  const auto small = MeasureConfig(Options(10.0, 31, 1, 5, 50.0, 5, 200, 3));
  const auto large = MeasureConfig(Options(10.0, 31, 1, 5, 50.0, 114, 200, 3));
  EXPECT_GT(small.energy_uj_per_bit, 2.0 * large.energy_uj_per_bit);
}

TEST(LinkMetrics, QueueWaitVisibleUnderLoad) {
  // rho ~ 0.9: queue wait is nonzero but bounded.
  const auto loaded = MeasureConfig(Options(15.0, 31, 3, 30, 21.0, 110, 800, 4));
  EXPECT_GT(loaded.mean_queue_wait_ms, 1.0);
  const auto relaxed =
      MeasureConfig(Options(15.0, 31, 3, 30, 200.0, 110, 200, 4));
  EXPECT_LT(relaxed.mean_queue_wait_ms, 0.5);
}

TEST(LinkMetrics, UtilizationTracksServiceOverInterval) {
  const auto options = Options(20.0, 19, 3, 5, 50.0, 110, 400, 5);
  const auto m = MeasureConfig(options);
  EXPECT_NEAR(m.utilization, m.mean_service_ms / 50.0, 1e-9);
  EXPECT_GT(m.utilization, 0.2);
  EXPECT_LT(m.utilization, 0.8);
}

TEST(LinkMetrics, P99DelayAtLeastMean) {
  const auto m = MeasureConfig(Options(25.0, 15, 3, 30, 25.0, 110, 600, 6));
  EXPECT_GE(m.p99_delay_ms, m.mean_delay_ms);
}

// ----------------------------------------------------------- aggregate ----

TEST(Aggregate, PerBySnrBucketsAreSorted) {
  const auto options = Options(35.0, 11, 1, 1, 30.0, 110, 800, 7);
  const auto result = node::RunLinkSimulation(options);
  const auto buckets = PerBySnr(result.log.Attempts(), 1.0);
  ASSERT_GT(buckets.size(), 1u);
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_GT(buckets[i].snr_center_db, buckets[i - 1].snr_center_db);
  }
  std::uint64_t total = 0;
  for (const auto& b : buckets) {
    total += b.attempts;
    EXPECT_GE(b.Per(), 0.0);
    EXPECT_LE(b.Per(), 1.0);
  }
  EXPECT_EQ(total, result.log.Attempts().size());
}

TEST(Aggregate, PerDecreasesAcrossSnrRange) {
  // Pool attempts from several powers at 35 m: low-SNR buckets must show
  // higher PER than high-SNR buckets.
  std::vector<link::AttemptRecord> all;
  for (const int level : {7, 11, 15, 23, 31}) {
    const auto result = node::RunLinkSimulation(
        Options(35.0, level, 1, 1, 30.0, 110, 600, 8 + level));
    const auto& attempts = result.log.Attempts();
    all.insert(all.end(), attempts.begin(), attempts.end());
  }
  const auto buckets = PerBySnr(all, 2.0);
  ASSERT_GT(buckets.size(), 4u);
  // Average PER of the lowest third vs highest third of buckets.
  const std::size_t third = buckets.size() / 3;
  double low = 0.0;
  double high = 0.0;
  for (std::size_t i = 0; i < third; ++i) {
    low += buckets[i].Per();
    high += buckets[buckets.size() - 1 - i].Per();
  }
  EXPECT_GT(low, high + 0.1 * third);
}

TEST(Aggregate, FitSamplesRespectMinCount) {
  const auto result =
      node::RunLinkSimulation(Options(35.0, 11, 1, 1, 30.0, 110, 500, 10));
  const auto strict =
      PerFitSamples(result.log.Attempts(), 1.0, /*min_attempts=*/100);
  const auto loose =
      PerFitSamples(result.log.Attempts(), 1.0, /*min_attempts=*/1);
  EXPECT_LE(strict.size(), loose.size());
  for (const auto& s : strict) {
    EXPECT_EQ(s.payload_bytes, 110.0);
    EXPECT_GE(s.value, 0.0);
    EXPECT_LE(s.value, 1.0);
  }
}

TEST(Aggregate, NtriesSamplesHaveNonNegativeExtraTries) {
  const auto result =
      node::RunLinkSimulation(Options(35.0, 11, 8, 5, 60.0, 110, 500, 11));
  const auto samples = NtriesFitSamples(result.log.Packets(), 2.0, 5);
  ASSERT_FALSE(samples.empty());
  for (const auto& s : samples) {
    EXPECT_GE(s.value, 0.0);        // extra tries can't be negative
    EXPECT_LT(s.value, 7.0 + 1e-9); // at most max_tries - 1
  }
}

TEST(Aggregate, InvalidBucketWidthThrows) {
  std::vector<link::AttemptRecord> empty;
  EXPECT_THROW((void)PerBySnr(empty, 0.0), std::invalid_argument);
  std::vector<link::PacketRecord> no_packets;
  EXPECT_THROW((void)NtriesFitSamples(no_packets, -1.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace wsnlink::metrics
