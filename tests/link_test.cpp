// Unit tests for the transmit queue and link layer.
#include <gtest/gtest.h>

#include <vector>

#include "channel/channel.h"
#include "link/link_layer.h"
#include "link/transmit_queue.h"
#include "mac/csma_mac.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace wsnlink::link {
namespace {

// ------------------------------------------------------ transmit queue ----

TEST(TransmitQueue, CapacityOneMeansNoBuffering) {
  std::vector<QueuedPacket> ring;
  TransmitQueue q(1, ring);
  EXPECT_TRUE(q.Offer({1, 10, 0}));
  (void)q.StartService();
  // In-service packet occupies the single slot: next arrival drops.
  EXPECT_FALSE(q.Offer({2, 10, 0}));
  EXPECT_EQ(q.Drops(), 1u);
  q.FinishService();
  EXPECT_TRUE(q.Offer({3, 10, 0}));
}

TEST(TransmitQueue, FifoOrder) {
  std::vector<QueuedPacket> ring;
  TransmitQueue q(10, ring);
  for (std::uint64_t id = 1; id <= 5; ++id) EXPECT_TRUE(q.Offer({id, 10, 0}));
  for (std::uint64_t id = 1; id <= 5; ++id) {
    EXPECT_EQ(q.StartService().id, id);
    q.FinishService();
  }
}

TEST(TransmitQueue, OccupancyCountsInService) {
  std::vector<QueuedPacket> ring;
  TransmitQueue q(3, ring);
  EXPECT_EQ(q.Occupancy(), 0);
  (void)q.Offer({1, 10, 0});
  (void)q.Offer({2, 10, 0});
  EXPECT_EQ(q.Occupancy(), 2);
  (void)q.StartService();
  EXPECT_EQ(q.Occupancy(), 2);  // 1 in service + 1 waiting
  (void)q.Offer({3, 10, 0});
  EXPECT_TRUE(q.Full());
  EXPECT_FALSE(q.Offer({4, 10, 0}));
  EXPECT_EQ(q.Accepted(), 3u);
  EXPECT_EQ(q.Drops(), 1u);
}

TEST(TransmitQueue, MisuseThrows) {
  std::vector<QueuedPacket> ring;
  TransmitQueue q(2, ring);
  EXPECT_THROW((void)q.StartService(), std::logic_error);  // nothing waiting
  EXPECT_THROW(q.FinishService(), std::logic_error);       // nothing serving
  (void)q.Offer({1, 10, 0});
  (void)q.StartService();
  EXPECT_THROW((void)q.StartService(), std::logic_error);  // already serving
  EXPECT_THROW(TransmitQueue(0, ring), std::invalid_argument);
}

// ---------------------------------------------------------- link layer ----

struct LinkHarness {
  sim::Simulator simulator;
  channel::Channel channel;
  mac::CsmaMac mac;
  std::vector<QueuedPacket> queue_ring;
  std::vector<LinkLayer::OpenRecord> open_records;
  LinkLayer link;

  LinkHarness(double distance, int pa_level, int max_tries, int queue_cap,
              std::uint64_t seed)
      : channel(MakeChannel(distance), util::Rng(seed)),
        mac(simulator, channel, MakeMac(pa_level, max_tries),
            util::Rng(seed + 1)),
        link(simulator, mac, queue_cap, queue_ring, open_records) {}

  static channel::ChannelConfig MakeChannel(double distance) {
    channel::ChannelConfig config;
    config.distance_m = distance;
    config.noise.burst_rate_hz = 0.0;
    return config;
  }
  static mac::MacParams MakeMac(int pa_level, int max_tries) {
    mac::MacParams params;
    params.pa_level = pa_level;
    params.max_tries = max_tries;
    return params;
  }
};

TEST(LinkLayer, SinglePacketLifecycleLogged) {
  LinkHarness h(5.0, 31, 3, 5, 200);
  EXPECT_TRUE(h.link.Accept(1, 50));
  h.simulator.Run();

  ASSERT_EQ(h.link.Log().Packets().size(), 1u);
  const auto& p = h.link.Log().Packets()[0];
  EXPECT_EQ(p.id, 1u);
  EXPECT_FALSE(p.dropped_at_queue);
  EXPECT_TRUE(p.acked);
  EXPECT_TRUE(p.delivered);
  EXPECT_EQ(p.tries, 1);
  EXPECT_EQ(p.service_start, p.arrived_at);  // idle link serves immediately
  EXPECT_GT(p.completed_at, p.service_start);
  EXPECT_NE(p.first_delivered_at, kNever);
  EXPECT_GT(p.first_delivered_at, p.service_start);
  EXPECT_LT(p.first_delivered_at, p.completed_at);
  EXPECT_GT(p.tx_energy_uj, 0.0);
  EXPECT_TRUE(h.link.Idle());
}

TEST(LinkLayer, BurstArrivalsQueueAndServeInOrder) {
  LinkHarness h(5.0, 31, 1, 10, 201);
  for (std::uint64_t id = 1; id <= 5; ++id) {
    EXPECT_TRUE(h.link.Accept(id, 20));
  }
  h.simulator.Run();

  const auto& packets = h.link.Log().Packets();
  ASSERT_EQ(packets.size(), 5u);
  sim::Time prev_completion = -1;
  for (const auto& p : packets) {
    EXPECT_TRUE(p.acked);
    EXPECT_GT(p.completed_at, prev_completion);
    prev_completion = p.completed_at;
  }
  // The later packets waited: their service start is after arrival.
  EXPECT_GT(packets[4].service_start, packets[4].arrived_at);
}

TEST(LinkLayer, QueueOverflowDropsAreLogged) {
  LinkHarness h(5.0, 31, 1, 2, 202);
  for (std::uint64_t id = 1; id <= 6; ++id) (void)h.link.Accept(id, 20);
  h.simulator.Run();

  const auto& packets = h.link.Log().Packets();
  ASSERT_EQ(packets.size(), 6u);
  int drops = 0;
  for (const auto& p : packets) {
    if (p.dropped_at_queue) {
      ++drops;
      EXPECT_EQ(p.service_start, kNever);
      EXPECT_EQ(p.completed_at, kNever);
      EXPECT_EQ(p.tries, 0);
    }
  }
  EXPECT_EQ(drops, 4);  // capacity 2: ids 1-2 held, 3-6 dropped
  EXPECT_EQ(h.link.Queue().Drops(), 4u);
}

TEST(LinkLayer, QueueDepthAtArrivalRecorded) {
  LinkHarness h(5.0, 31, 1, 10, 203);
  for (std::uint64_t id = 1; id <= 4; ++id) (void)h.link.Accept(id, 20);
  const auto& packets = h.link.Log().Packets();
  EXPECT_EQ(packets[0].queue_depth_at_arrival, 0);
  EXPECT_EQ(packets[1].queue_depth_at_arrival, 1);
  EXPECT_EQ(packets[2].queue_depth_at_arrival, 2);
  EXPECT_EQ(packets[3].queue_depth_at_arrival, 3);
  h.simulator.Run();
}

TEST(LinkLayer, AttemptLogMatchesTries) {
  LinkHarness h(35.0, 7, 8, 5, 204);  // grey zone: retransmissions happen
  for (std::uint64_t id = 1; id <= 50; ++id) {
    (void)h.link.Accept(id, 110);
    h.simulator.Run();
  }
  int total_tries = 0;
  int cca_exhausted_tries = 0;
  for (const auto& p : h.link.Log().Packets()) total_tries += p.tries;
  // Attempts that never transmitted (CCA exhaustion) are not in the log;
  // with interference disabled there are none.
  (void)cca_exhausted_tries;
  EXPECT_EQ(h.link.Log().Attempts().size(),
            static_cast<std::size_t>(total_tries));
}

TEST(LinkLayer, DeliveryCallbackForwarded) {
  LinkHarness h(5.0, 31, 3, 15, 205);
  int delivered = 0;
  h.link.SetDeliveryCallback(
      [&delivered](const mac::DeliveryInfo&) { ++delivered; });
  for (std::uint64_t id = 1; id <= 10; ++id) (void)h.link.Accept(id, 30);
  h.simulator.Run();
  EXPECT_EQ(delivered, 10);
}

TEST(LinkLayer, UndeliveredPacketHasNoDeliveryTimestamp) {
  LinkHarness h(35.0, 3, 2, 5, 206);  // below sensitivity
  (void)h.link.Accept(1, 50);
  h.simulator.Run();
  const auto& p = h.link.Log().Packets()[0];
  EXPECT_FALSE(p.delivered);
  EXPECT_EQ(p.first_delivered_at, kNever);
  EXPECT_EQ(p.rssi_dbm, 0.0);
}

}  // namespace
}  // namespace wsnlink::link
