// Tests for the duty-cycled low-power-listening MAC.
#include <gtest/gtest.h>

#include <optional>

#include "channel/channel.h"
#include "mac/lpl_mac.h"
#include "metrics/link_metrics.h"
#include "node/link_simulation.h"
#include "phy/cc2420.h"
#include "phy/frame.h"
#include "sim/simulator.h"
#include "trace/counters.h"
#include "util/rng.h"

namespace wsnlink::mac {
namespace {

channel::ChannelConfig StrongLink() {
  channel::ChannelConfig config;
  config.distance_m = 5.0;
  config.noise.burst_rate_hz = 0.0;
  return config;
}

struct LplHarness {
  sim::Simulator simulator;
  channel::Channel channel;
  LplMac mac;
  trace::CounterRegistry counters;
  std::optional<SendResult> result;
  int deliveries = 0;

  LplHarness(LplParams params, std::uint64_t seed,
             channel::ChannelConfig link = StrongLink())
      : channel(link, util::Rng(seed)),
        mac(simulator, channel, params, util::Rng(seed + 1)) {
    mac.SetDeliveryCallback([this](const DeliveryInfo&) { ++deliveries; });
    trace::TraceContext ctx;
    ctx.counters = &counters;
    mac.AttachTrace(ctx);
  }

  void SendAndRun(int payload) {
    mac.Send(1, payload, [this](const SendResult& r) { result = r; });
    simulator.Run();
  }

  /// Copies radiated so far, as the MAC's own counter tallies them.
  [[nodiscard]] std::uint64_t Copies() const {
    return counters.Value("mac.lpl_copies");
  }
};

TEST(LplMac, DeliversOnStrongLink) {
  LplParams params;
  params.wakeup_interval = 100 * sim::kMillisecond;
  LplHarness h(params, 500);
  h.SendAndRun(60);
  ASSERT_TRUE(h.result.has_value());
  EXPECT_TRUE(h.result->acked);
  EXPECT_TRUE(h.result->delivered);
  EXPECT_GE(h.deliveries, 1);
}

TEST(LplMac, TrainLengthBoundedByWakeupInterval) {
  // On a strong link the train stops at the receiver's first wake window,
  // so the copy count is at most one full interval's worth.
  LplParams params;
  params.wakeup_interval = 200 * sim::kMillisecond;
  LplHarness h(params, 501);
  h.SendAndRun(50);
  ASSERT_TRUE(h.result->acked);
  const auto copy_slot = phy::DataFrameAirTime(50) + 1'600;
  const auto max_copies = (params.wakeup_interval + params.probe_duration) /
                              copy_slot + 2;
  EXPECT_LE(h.Copies(), static_cast<std::uint64_t>(max_copies));
  EXPECT_GE(h.Copies(), 1u);
}

TEST(LplMac, CompletionLatencyWithinOneInterval) {
  LplParams params;
  params.wakeup_interval = 150 * sim::kMillisecond;
  LplHarness h(params, 502);
  h.SendAndRun(40);
  ASSERT_TRUE(h.result->acked);
  const auto elapsed = h.result->completed_at - h.result->accepted_at;
  // Must finish within one wakeup interval plus overheads.
  EXPECT_LE(elapsed, params.wakeup_interval + 30 * sim::kMillisecond);
}

TEST(LplMac, ShorterWakeupMeansFewerCopies) {
  LplParams fast;
  fast.wakeup_interval = 50 * sim::kMillisecond;
  LplParams slow;
  slow.wakeup_interval = 400 * sim::kMillisecond;

  std::uint64_t fast_copies = 0;
  std::uint64_t slow_copies = 0;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    LplHarness hf(fast, 510 + seed);
    hf.SendAndRun(60);
    fast_copies += hf.Copies();
    LplHarness hs(slow, 510 + seed);
    hs.SendAndRun(60);
    slow_copies += hs.Copies();
  }
  // Mean train length scales with the wakeup interval.
  EXPECT_GT(slow_copies, 3 * fast_copies);
}

TEST(LplMac, EnergyScalesWithCopies) {
  LplParams params;
  params.wakeup_interval = 100 * sim::kMillisecond;
  LplHarness h(params, 520);
  h.SendAndRun(80);
  const double per_copy = phy::EnergyPerBitMicrojoule(31) * 8.0 *
                          static_cast<double>(phy::DataFrameBytes(80));
  EXPECT_NEAR(h.result->tx_energy_uj,
              per_copy * static_cast<double>(h.Copies()), 1e-6);
  EXPECT_EQ(h.result->radiated_bytes,
            static_cast<int>(h.Copies()) * phy::DataFrameBytes(80));
}

TEST(LplMac, DeadLinkExhaustsTrains) {
  channel::ChannelConfig dead;
  dead.distance_m = 35.0;
  dead.use_default_temporal_sigma = false;
  dead.shadowing.sigma_db = 0.0;
  dead.noise.burst_rate_hz = 0.0;

  LplParams params;
  params.wakeup_interval = 50 * sim::kMillisecond;
  params.max_tries = 3;
  params.pa_level = 3;  // below sensitivity at 35 m
  LplHarness h(params, 530, dead);
  h.SendAndRun(30);
  ASSERT_TRUE(h.result.has_value());
  EXPECT_FALSE(h.result->acked);
  EXPECT_FALSE(h.result->delivered);
  EXPECT_EQ(h.result->tries, 3);
}

TEST(LplMac, DutyCycleArithmetic) {
  LplParams params;
  params.wakeup_interval = 110 * sim::kMillisecond;
  params.probe_duration = 11 * sim::kMillisecond;
  LplHarness h(params, 540);
  EXPECT_NEAR(h.mac.ReceiverIdleDutyCycle(), 0.1, 1e-12);
  // 10% of the 56.4 mW RX power.
  EXPECT_NEAR(h.mac.ReceiverIdlePowerMw(), 5.64, 1e-9);
}

TEST(LplMac, InvalidParamsRejected) {
  sim::Simulator simulator;
  channel::Channel channel(StrongLink(), util::Rng(1));
  LplParams bad;
  bad.wakeup_interval = 0;
  EXPECT_THROW(LplMac(simulator, channel, bad, util::Rng(2)),
               std::invalid_argument);
  LplParams bad_probe;
  bad_probe.probe_duration = bad_probe.wakeup_interval + 1;
  EXPECT_THROW(LplMac(simulator, channel, bad_probe, util::Rng(2)),
               std::invalid_argument);
  LplParams bad_level;
  bad_level.pa_level = 4;
  EXPECT_THROW(LplMac(simulator, channel, bad_level, util::Rng(2)),
               std::invalid_argument);
}

TEST(LplMac, EndToEndThroughLinkSimulation) {
  node::SimulationOptions options;
  options.mac = node::MacKind::kLpl;
  options.lpl_wakeup_interval_ms = 100.0;
  options.config.distance_m = 10.0;
  options.config.pa_level = 31;
  options.config.max_tries = 2;
  options.config.queue_capacity = 5;
  options.config.pkt_interval_ms = 500.0;
  options.config.payload_bytes = 60;
  options.packet_count = 50;
  options.seed = 3;
  const auto m = metrics::MeasureConfig(options);
  EXPECT_GE(m.delivered_unique, 48u);
  // LPL delay is dominated by the rendezvous wait (~half an interval).
  EXPECT_GT(m.mean_delay_ms, 10.0);
  EXPECT_LT(m.mean_delay_ms, 120.0);
  // Sender energy per bit is far above always-on CSMA (many copies).
  EXPECT_GT(m.energy_uj_per_bit, 1.0);
}

TEST(LplMac, LplVsCsmaDelayAndSenderEnergy) {
  node::SimulationOptions options;
  options.config.distance_m = 10.0;
  options.config.max_tries = 3;
  options.config.queue_capacity = 5;
  // Not a multiple of the wakeup interval, so packet arrivals rotate
  // through all rendezvous phases instead of aliasing onto one offset.
  options.config.pkt_interval_ms = 410.0;
  options.config.payload_bytes = 80;
  options.packet_count = 80;
  options.seed = 4;

  const auto csma = metrics::MeasureConfig(options);
  options.mac = node::MacKind::kLpl;
  options.lpl_wakeup_interval_ms = 200.0;
  const auto lpl = metrics::MeasureConfig(options);

  EXPECT_GT(lpl.mean_delay_ms, 3.0 * csma.mean_delay_ms);
  EXPECT_GT(lpl.energy_uj_per_bit, 5.0 * csma.energy_uj_per_bit);
}

// ----------------------------------- wakeup-interval parameter sweep ----

class LplWakeupSweep : public ::testing::TestWithParam<double> {};

TEST_P(LplWakeupSweep, DelayTracksHalfTheInterval) {
  const double wakeup_ms = GetParam();
  node::SimulationOptions options;
  options.mac = node::MacKind::kLpl;
  options.lpl_wakeup_interval_ms = wakeup_ms;
  options.config.distance_m = 10.0;
  options.config.pa_level = 31;
  options.config.max_tries = 2;
  options.config.queue_capacity = 5;
  // Coprime-ish to every swept interval: rendezvous phases rotate.
  options.config.pkt_interval_ms = 3.17 * wakeup_ms + 11.0;
  options.config.payload_bytes = 60;
  options.packet_count = 120;
  options.seed = 1000 + static_cast<std::uint64_t>(wakeup_ms);
  const auto m = metrics::MeasureConfig(options);

  ASSERT_GT(m.delivered_unique, 110u);
  // Mean rendezvous wait ~ wakeup/2 plus per-copy and SPI overheads.
  EXPECT_GT(m.mean_delay_ms, 0.25 * wakeup_ms);
  EXPECT_LT(m.mean_delay_ms, 0.85 * wakeup_ms + 15.0);
  // Receiver duty cycle shrinks with the interval.
  EXPECT_NEAR(m.receiver_idle_power_mw, 11.0 / wakeup_ms * 56.4,
              0.01 * 56.4);
}

INSTANTIATE_TEST_SUITE_P(WakeupIntervals, LplWakeupSweep,
                         ::testing::Values(50.0, 100.0, 200.0, 400.0),
                         [](const ::testing::TestParamInfo<double>& info) {
                           return "w" + std::to_string(
                                            static_cast<int>(info.param));
                         });

}  // namespace
}  // namespace wsnlink::mac
