// Unit tests for the application layer: traffic generation and the sink.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "app/sink.h"
#include "app/traffic_gen.h"
#include "channel/channel.h"
#include "link/link_layer.h"
#include "mac/csma_mac.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace wsnlink::app {
namespace {

struct AppHarness {
  sim::Simulator simulator;
  channel::Channel channel;
  mac::CsmaMac mac;
  link::LinkLayer link;

  explicit AppHarness(std::uint64_t seed, double distance = 5.0,
                      mac::MacParams mac_params = {})
      : channel(MakeChannel(distance), util::Rng(seed)),
        mac(simulator, channel, mac_params, util::Rng(seed + 1)),
        link(simulator, mac, 30) {}

  static channel::ChannelConfig MakeChannel(double distance) {
    channel::ChannelConfig config;
    config.distance_m = distance;
    config.noise.burst_rate_hz = 0.0;
    return config;
  }
};

TEST(TrafficGenerator, GeneratesExactCountAtFixedInterval) {
  AppHarness h(300);
  TrafficParams params;
  params.pkt_interval = 50 * sim::kMillisecond;
  params.payload_bytes = 40;
  params.packet_count = 10;
  TrafficGenerator gen(h.simulator, h.link, params, util::Rng(1));
  gen.Start();
  h.simulator.Run();

  EXPECT_EQ(gen.Generated(), 10);
  EXPECT_TRUE(gen.Done());
  const auto& packets = h.link.Log().Packets();
  ASSERT_EQ(packets.size(), 10u);
  // Arrivals exactly 50 ms apart.
  for (std::size_t i = 1; i < packets.size(); ++i) {
    EXPECT_EQ(packets[i].arrived_at - packets[i - 1].arrived_at,
              50 * sim::kMillisecond);
  }
  // Sequential ids from 1.
  EXPECT_EQ(packets.front().id, 1u);
  EXPECT_EQ(packets.back().id, 10u);
}

TEST(TrafficGenerator, PoissonArrivalsHaveExponentialGaps) {
  AppHarness h(301);
  TrafficParams params;
  params.pkt_interval = 20 * sim::kMillisecond;
  params.payload_bytes = 10;
  params.packet_count = 2000;
  params.poisson = true;
  TrafficGenerator gen(h.simulator, h.link, params, util::Rng(2));
  gen.Start();
  h.simulator.Run();

  const auto& packets = h.link.Log().Packets();
  util::RunningStats gaps;
  for (std::size_t i = 1; i < packets.size(); ++i) {
    gaps.Add(sim::ToMilliseconds(packets[i].arrived_at -
                                 packets[i - 1].arrived_at));
  }
  EXPECT_NEAR(gaps.Mean(), 20.0, 1.5);
  // Exponential: stddev ~ mean (deterministic would be 0).
  EXPECT_GT(gaps.StdDev(), 12.0);
}

TEST(TrafficGenerator, InvalidParamsRejected) {
  AppHarness h(302);
  TrafficParams bad;
  bad.pkt_interval = 0;
  EXPECT_THROW(TrafficGenerator(h.simulator, h.link, bad, util::Rng(1)),
               std::invalid_argument);
  TrafficParams bad2;
  bad2.packet_count = 0;
  EXPECT_THROW(TrafficGenerator(h.simulator, h.link, bad2, util::Rng(1)),
               std::invalid_argument);
  TrafficParams bad3;
  bad3.payload_bytes = 200;
  EXPECT_THROW(TrafficGenerator(h.simulator, h.link, bad3, util::Rng(1)),
               std::invalid_argument);
}

TEST(PacketSink, CountsUniqueAndDuplicates) {
  std::vector<ReceptionRecord> receptions;
  PacketSink sink(receptions);
  mac::DeliveryInfo info;
  info.packet_id = 1;
  info.payload_bytes = 50;
  info.received_at = 1000;
  info.rssi_dbm = -70.0;
  info.snr_db = 25.0;
  info.lqi = 105;
  sink.OnDelivery(info, true);
  sink.OnDelivery(info, false);  // duplicate copy
  info.packet_id = 2;
  info.received_at = 2000;
  sink.OnDelivery(info, true);

  EXPECT_EQ(sink.UniqueCount(), 2u);
  EXPECT_EQ(sink.DuplicateCount(), 1u);
  EXPECT_EQ(sink.UniquePayloadBytes(), 100u);
  EXPECT_EQ(sink.LastDeliveryAt(), 2000);
  ASSERT_EQ(sink.Receptions().size(), 3u);
  EXPECT_FALSE(sink.Receptions()[0].duplicate);
  EXPECT_TRUE(sink.Receptions()[1].duplicate);
  EXPECT_EQ(sink.RssiStats().Count(), 3u);
  EXPECT_NEAR(sink.SnrStats().Mean(), 25.0, 1e-12);
}

TEST(PacketSink, EndToEndWithLink) {
  AppHarness h(303);
  std::vector<ReceptionRecord> receptions;
  PacketSink sink(receptions);
  h.link.SetDeliveryCallback(
      [&sink](const mac::DeliveryInfo& info, bool first_copy) {
        sink.OnDelivery(info, first_copy);
      });
  TrafficParams params;
  params.pkt_interval = 30 * sim::kMillisecond;
  params.payload_bytes = 60;
  params.packet_count = 100;
  TrafficGenerator gen(h.simulator, h.link, params, util::Rng(3));
  gen.Start();
  h.simulator.Run();

  // Strong link: everything arrives exactly once.
  EXPECT_EQ(sink.UniqueCount(), 100u);
  EXPECT_EQ(sink.UniquePayloadBytes(), 6000u);
  EXPECT_GT(sink.LqiStats().Mean(), 100.0);
}

// A lost ACK makes the sender retransmit a packet the receiver already
// decoded. The link layer's record knows the packet's first delivery, so it
// flags the second copy and the sink counts it as a duplicate.
TEST(PacketSink, DuplicateAfterLostAckIsFlaggedByTheLink) {
  mac::MacParams grey_zone;  // PA 3 at 25 m: ACKs get lost after decoded data
  grey_zone.pa_level = 3;
  grey_zone.max_tries = 8;
  AppHarness h(304, 25.0, grey_zone);
  std::vector<ReceptionRecord> receptions;
  PacketSink sink(receptions);
  std::vector<std::pair<mac::DeliveryInfo, bool>> copies;
  h.link.SetDeliveryCallback(
      [&](const mac::DeliveryInfo& info, bool first_copy) {
        copies.emplace_back(info, first_copy);
        sink.OnDelivery(info, first_copy);
      });
  for (std::uint64_t id = 1; id <= 50; ++id) {
    ASSERT_TRUE(h.link.Accept(id, 110));
    h.simulator.Run();
  }

  ASSERT_EQ(receptions.size(), copies.size());
  std::uint64_t duplicates = 0;
  std::uint64_t last_id = 0;
  for (std::size_t i = 0; i < copies.size(); ++i) {
    const auto& [info, first_copy] = copies[i];
    // Copies arrive packet by packet; only a packet's first one is fresh.
    EXPECT_EQ(first_copy, info.packet_id != last_id) << info.packet_id;
    EXPECT_EQ(receptions[i].duplicate, !first_copy);
    const link::PacketRecord& record =
        h.link.Log().Packets()[info.packet_id - 1];
    if (first_copy) {
      EXPECT_EQ(record.first_delivered_at, info.received_at);
    } else {
      ++duplicates;
      EXPECT_LT(record.first_delivered_at, info.received_at);
    }
    last_id = info.packet_id;
  }
  ASSERT_GT(duplicates, 0u);
  EXPECT_EQ(sink.DuplicateCount(), duplicates);
  EXPECT_EQ(sink.UniqueCount() + duplicates, copies.size());
}

}  // namespace
}  // namespace wsnlink::app
