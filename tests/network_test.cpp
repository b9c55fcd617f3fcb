// Multi-node network simulation tests.
//
// The refactor's load-bearing promise is that RunLinkSimulation is the N=1
// special case of RunNetworkSimulation, bit for bit — the first two tests
// pin that for both MACs down to per-packet logs, counters and traced
// event streams. The rest exercise what only N>1 can show: emergent
// carrier-sense pressure and collisions without any synthetic interferer,
// monotone degradation in contender count, per-node counter bookkeeping,
// thread-count invariance of the contention sweep and checkpoint/resume of
// a contention ladder.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "experiment/checkpoint.h"
#include "experiment/contention.h"
#include "experiment/sweep.h"
#include "node/link_simulation.h"
#include "node/network_simulation.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace wsnlink {
namespace {

node::SimulationOptions BaseOptions() {
  node::SimulationOptions options;
  options.config.distance_m = 20.0;
  options.config.pa_level = 19;
  options.config.max_tries = 3;
  options.config.queue_capacity = 5;
  options.config.pkt_interval_ms = 25.0;
  options.config.payload_bytes = 110;
  options.seed = 1234;
  options.packet_count = 300;
  return options;
}

std::uint64_t CounterValue(const std::vector<trace::CounterSample>& samples,
                           const std::string& name) {
  for (const auto& s : samples) {
    if (s.name == name) return s.value;
  }
  ADD_FAILURE() << "counter not found: " << name;
  return 0;
}

void ExpectResultsIdentical(const node::SimulationResult& a,
                            const node::SimulationResult& b) {
  EXPECT_EQ(a.generated, b.generated);
  EXPECT_EQ(a.unique_delivered, b.unique_delivered);
  EXPECT_EQ(a.duplicates, b.duplicates);
  EXPECT_EQ(a.unique_payload_bytes, b.unique_payload_bytes);
  EXPECT_EQ(a.last_delivery_at, b.last_delivery_at);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.cca_busy, b.cca_busy);
  EXPECT_EQ(a.receiver_idle_duty, b.receiver_idle_duty);
  // Bit-exact double comparison is intentional: same seed, same order of
  // operations, any divergence is an equivalence bug.
  EXPECT_EQ(a.mean_snr_db, b.mean_snr_db);
  ASSERT_EQ(a.rssi_stats.Count(), b.rssi_stats.Count());
  if (a.rssi_stats.Count() > 0) {
    EXPECT_EQ(a.rssi_stats.Mean(), b.rssi_stats.Mean());
    EXPECT_EQ(a.snr_stats.Mean(), b.snr_stats.Mean());
    EXPECT_EQ(a.lqi_stats.Mean(), b.lqi_stats.Mean());
  }
  EXPECT_EQ(a.counters, b.counters);

  ASSERT_EQ(a.log.Packets().size(), b.log.Packets().size());
  for (std::size_t i = 0; i < a.log.Packets().size(); ++i) {
    const auto& pa = a.log.Packets()[i];
    const auto& pb = b.log.Packets()[i];
    EXPECT_EQ(pa.id, pb.id) << "packet " << i;
    EXPECT_EQ(pa.arrived_at, pb.arrived_at) << "packet " << i;
    EXPECT_EQ(pa.dropped_at_queue, pb.dropped_at_queue) << "packet " << i;
    EXPECT_EQ(pa.service_start, pb.service_start) << "packet " << i;
    EXPECT_EQ(pa.completed_at, pb.completed_at) << "packet " << i;
    EXPECT_EQ(pa.acked, pb.acked) << "packet " << i;
    EXPECT_EQ(pa.delivered, pb.delivered) << "packet " << i;
    EXPECT_EQ(pa.tries, pb.tries) << "packet " << i;
    EXPECT_EQ(pa.tx_energy_uj, pb.tx_energy_uj) << "packet " << i;
    EXPECT_EQ(pa.listen_time, pb.listen_time) << "packet " << i;
    EXPECT_EQ(pa.first_delivered_at, pb.first_delivered_at) << "packet " << i;
    EXPECT_EQ(pa.rssi_dbm, pb.rssi_dbm) << "packet " << i;
  }
  ASSERT_EQ(a.log.Attempts().size(), b.log.Attempts().size());
  for (std::size_t i = 0; i < a.log.Attempts().size(); ++i) {
    const auto& aa = a.log.Attempts()[i];
    const auto& ab = b.log.Attempts()[i];
    EXPECT_EQ(aa.packet_id, ab.packet_id) << "attempt " << i;
    EXPECT_EQ(aa.attempt, ab.attempt) << "attempt " << i;
    EXPECT_EQ(aa.at, ab.at) << "attempt " << i;
    EXPECT_EQ(aa.data_received, ab.data_received) << "attempt " << i;
    EXPECT_EQ(aa.acked, ab.acked) << "attempt " << i;
    EXPECT_EQ(aa.snr_db, ab.snr_db) << "attempt " << i;
  }
}

// --- N=1 equivalence --------------------------------------------------

TEST(NetworkSimulation, SingleNodeMatchesLinkSimulationCsma) {
  const auto options = BaseOptions();
  trace::Tracer link_tracer;
  trace::Tracer network_tracer;

  auto link_options = options;
  link_options.tracer = &link_tracer;
  const auto link = node::RunLinkSimulation(link_options);

  auto network_base = options;
  network_base.tracer = &network_tracer;
  auto network = node::RunNetworkSimulation(
      node::SingleLinkNetwork(network_base));
  ASSERT_EQ(network.nodes.size(), 1u);
  EXPECT_FALSE(network.medium_active);
  EXPECT_EQ(network.medium.frames, 0u);
  EXPECT_EQ(network.end_time, link.end_time);
  EXPECT_EQ(network.events_executed, link.events_executed);
  EXPECT_EQ(network.generated, static_cast<std::uint64_t>(link.generated));
  EXPECT_EQ(network.delivered_unique, link.unique_delivered);
  EXPECT_EQ(network.cca_busy, link.cca_busy);

  // The network reports the kernel's sim.* counters per run, not per node.
  node::SimulationResult node0 = std::move(network.nodes.front());
  node0.counters = trace::MergeCounters({node0.counters, network.run_counters});
  ExpectResultsIdentical(link, node0);

  // The traced event streams must be identical too (including the node
  // stamp: every single-link event belongs to node 0).
  const auto link_events = link_tracer.Events();
  const auto network_events = network_tracer.Events();
  EXPECT_EQ(link_events, network_events);
  for (const auto& e : network_events) EXPECT_EQ(e.node, 0);
}

TEST(NetworkSimulation, SingleNodeMatchesLinkSimulationLpl) {
  auto options = BaseOptions();
  options.mac = node::MacKind::kLpl;
  options.lpl_wakeup_interval_ms = 50.0;
  options.config.pkt_interval_ms = 200.0;
  options.packet_count = 150;

  const auto link = node::RunLinkSimulation(options);
  auto network = node::RunNetworkSimulation(node::SingleLinkNetwork(options));
  ASSERT_EQ(network.nodes.size(), 1u);
  node::SimulationResult node0 = std::move(network.nodes.front());
  node0.counters = trace::MergeCounters({node0.counters, network.run_counters});
  ExpectResultsIdentical(link, node0);
}

// --- topology validation ----------------------------------------------

TEST(NetworkSimulation, RejectsEmptyTopology) {
  node::NetworkOptions options;
  options.base = BaseOptions();
  EXPECT_THROW(node::RunNetworkSimulation(options), std::invalid_argument);
}

TEST(NetworkSimulation, RejectsInvertedMobilityBounds) {
  auto options = BaseOptions();
  options.mobility_speed_mps = 1.0;
  options.mobility_min_m = 30.0;
  options.mobility_max_m = 10.0;  // min >= max
  EXPECT_THROW(node::RunLinkSimulation(options), std::invalid_argument);
  EXPECT_THROW(
      node::RunNetworkSimulation(node::SingleLinkNetwork(options)),
      std::invalid_argument);
}

TEST(NetworkSimulation, RejectsStartDistanceOutsidePatrolRange) {
  auto options = BaseOptions();
  options.mobility_speed_mps = 1.0;
  options.mobility_min_m = 25.0;
  options.mobility_max_m = 35.0;
  options.config.distance_m = 20.0;  // outside [25, 35]
  EXPECT_THROW(node::RunLinkSimulation(options), std::invalid_argument);
}

TEST(NetworkSimulation, RejectsNonPositivePacketCountOverride) {
  auto base = BaseOptions();
  auto options = node::SingleLinkNetwork(base);
  options.nodes[0].packet_count = -3;
  EXPECT_THROW(node::RunNetworkSimulation(options), std::invalid_argument);
}

// Same-time events order by sender lane, and the kernel has 65,536 lanes:
// a larger topology is an error, not a run with a second event order. The
// check runs before any stack is built.
TEST(NetworkSimulation, RejectsMoreSendersThanLanes) {
  node::NetworkOptions options;
  options.base = BaseOptions();
  options.nodes.resize(std::size_t{sim::Simulator::kMaxLanes} + 1,
                       node::SingleLinkNetwork(options.base).nodes.front());
  EXPECT_THROW(node::RunNetworkSimulation(options), std::invalid_argument);
}

// sim_threads survives only as a source-compatible field: runs are always
// sequential, so every value but 1 is an error, not a silent fallback.
TEST(NetworkSimulation, RejectsSimThreadsOtherThanOne) {
  for (const int threads : {0, 2}) {
    auto network =
        node::UniformNetwork(BaseOptions(), std::vector<double>(2, 20.0));
    network.sim_threads = threads;
    EXPECT_THROW(node::RunNetworkSimulation(network), std::invalid_argument)
        << "sim_threads " << threads;

    experiment::ContentionOptions contention;
    contention.node_counts = {2};
    contention.sim_threads = threads;
    EXPECT_THROW(experiment::RunContentionSweep(contention),
                 std::invalid_argument)
        << "sim_threads " << threads;
  }
}

// --- emergent contention ----------------------------------------------

node::SimulationOptions ContendedBase() {
  auto options = BaseOptions();
  // No ambient interference bursts and no synthetic interferer: every
  // carrier-sense hit and every collision below is emergent.
  options.disable_interference = true;
  options.interferer_duty_cycle = 0.0;
  return options;
}

TEST(NetworkSimulation, TwoSendersContendEmergently) {
  const auto base = ContendedBase();
  const auto solo =
      node::RunNetworkSimulation(node::UniformNetwork(base, {20.0}));
  const auto pair =
      node::RunNetworkSimulation(node::UniformNetwork(base, {20.0, 20.0}));

  EXPECT_FALSE(solo.medium_active);
  EXPECT_EQ(solo.cca_busy, 0u);

  EXPECT_TRUE(pair.medium_active);
  EXPECT_GT(pair.medium.frames, 0u);
  EXPECT_GT(pair.cca_busy, 0u) << "CCA never sensed the other sender";
  EXPECT_GT(pair.medium.collisions, 0u) << "no overlapping frames collided";
  EXPECT_GT(pair.per, solo.per)
      << "collisions should raise PER over the uncontended link";
}

TEST(NetworkSimulation, DegradationMonotoneInContenderCount) {
  const auto base = ContendedBase();
  std::vector<node::NetworkResult> ladder;
  for (const int n : {1, 2, 4}) {
    ladder.push_back(node::RunNetworkSimulation(
        node::UniformNetwork(base, std::vector<double>(n, 20.0))));
  }
  for (std::size_t i = 1; i < ladder.size(); ++i) {
    EXPECT_GE(ladder[i].per, ladder[i - 1].per) << "rung " << i;
    EXPECT_GE(ladder[i].queue_drops, ladder[i - 1].queue_drops)
        << "rung " << i;
    EXPECT_GE(ladder[i].plr_total, ladder[i - 1].plr_total) << "rung " << i;
  }
}

TEST(NetworkSimulation, PerNodeCounterInvariants) {
  auto base = ContendedBase();
  base.packet_count = 150;
  const auto result = node::RunNetworkSimulation(
      node::UniformNetwork(base, {15.0, 20.0, 25.0}));
  ASSERT_EQ(result.nodes.size(), 3u);

  std::uint64_t generated_sum = 0;
  for (std::size_t i = 0; i < result.nodes.size(); ++i) {
    const auto& n = result.nodes[i];
    const auto generated = static_cast<std::uint64_t>(n.generated);
    generated_sum += generated;
    EXPECT_EQ(CounterValue(n.counters, "app.packets_generated"), generated)
        << "node " << i;
    EXPECT_EQ(CounterValue(n.counters, "link.accepted") +
                  CounterValue(n.counters, "link.queue_drops"),
              generated)
        << "node " << i;
    EXPECT_EQ(CounterValue(n.counters, "mac.cca_busy"), n.cca_busy)
        << "node " << i;
    EXPECT_EQ(CounterValue(n.counters, "app.rx_unique"), n.unique_delivered)
        << "node " << i;
  }

  // Aggregates: counter sums across nodes plus the medium.* samples.
  EXPECT_EQ(result.generated, generated_sum);
  EXPECT_EQ(CounterValue(result.aggregate_counters, "app.packets_generated"),
            generated_sum);
  EXPECT_EQ(CounterValue(result.aggregate_counters, "medium.frames"),
            result.medium.frames);
  EXPECT_EQ(CounterValue(result.aggregate_counters, "medium.collisions"),
            result.medium.collisions);
  EXPECT_GT(CounterValue(result.aggregate_counters, "sim.events_executed"),
            0u);
}

TEST(NetworkSimulation, LplSendersSenseSharedMedium) {
  auto base = ContendedBase();
  base.mac = node::MacKind::kLpl;
  base.lpl_wakeup_interval_ms = 50.0;
  base.config.pkt_interval_ms = 100.0;
  base.packet_count = 80;
  const auto pair =
      node::RunNetworkSimulation(node::UniformNetwork(base, {20.0, 20.0}));
  EXPECT_TRUE(pair.medium_active);
  EXPECT_GT(pair.cca_busy, 0u)
      << "LPL train carrier sense never saw the other sender";
}

TEST(NetworkSimulation, AblationSyntheticInterfererWithoutMedium) {
  auto base = ContendedBase();
  base.interferer_duty_cycle = 0.2;
  auto options = node::UniformNetwork(base, {20.0, 20.0});
  options.shared_medium = false;
  const auto result = node::RunNetworkSimulation(options);
  EXPECT_FALSE(result.medium_active);
  EXPECT_EQ(result.medium.collisions, 0u);
  EXPECT_GT(result.cca_busy, 0u)
      << "the synthetic interferer should still drive CCA busy";
}

// --- shared-medium driver byte pins -------------------------------------

// One contended network of the byte pin below.
struct TieProneCase {
  const char* name;
  int nodes;
  bool poisson;
  double interval_ms;
  int max_tries;
  int queue;
  double retry_delay_ms;
  double interferer_duty;
  std::uint64_t seed;
  node::MacKind mac;
  std::uint64_t digest;  // RunDigest at the parent of the driver change
  // Events executed once the driver runs medium-proven busy CCAs inline;
  // 0 leaves the count unpinned.
  std::uint64_t events = 0;
};

// FNV-1a over the observable bytes of a network run: every node's packet
// and attempt logs and non-kernel counters, then the medium's statistics.
std::uint64_t RunDigest(const node::NetworkResult& result) {
  std::string bytes;
  // Appends each value as decimal text (doubles by their bit pattern).
  const auto add = [&bytes](auto... values) {
    const auto one = [&bytes](auto value) {
      if constexpr (std::is_floating_point_v<decltype(value)>) {
        bytes += std::to_string(std::bit_cast<std::uint64_t>(value));
      } else {
        bytes += std::to_string(static_cast<std::int64_t>(value));
      }
      bytes += ',';
    };
    (one(values), ...);
  };
  for (const auto& node : result.nodes) {
    for (const auto& p : node.log.Packets()) {
      add(p.id, p.payload_bytes, p.arrived_at, p.queue_depth_at_arrival,
          p.dropped_at_queue, p.service_start, p.completed_at, p.acked,
          p.delivered, p.tries, p.tx_energy_uj, p.listen_time,
          p.first_delivered_at, p.rssi_dbm, p.snr_db, p.lqi);
    }
    for (const auto& a : node.log.Attempts()) {
      add(a.packet_id, a.attempt, a.payload_bytes, a.at, a.rssi_dbm,
          a.snr_db, a.data_received, a.acked);
    }
    for (const auto& c : node.counters) {
      if (c.name.starts_with("sim.")) continue;
      bytes += c.name;
      add(c.value);
    }
  }
  add(result.medium.frames, result.medium.busy_hits, result.medium.collisions,
      result.medium.captures);
  return experiment::CheckpointChecksum(bytes);
}

// Contended networks where a node's completion and its own next arrival
// can land on one microsecond, so the order of same-time events in a lane
// decides queue drops. The digests were recorded before the event driver
// began running medium-proven CCAs inline; the driver must keep them. The
// n128 event count (285,124 before) fails a driver that stops inlining.
TEST(NetworkSimulation, TieProneNetworksKeepParentBytes) {
  using node::MacKind;
  constexpr TieProneCase kCases[] = {
      {"n64-poisson5-tries1-seed1", 64, true, 5.0, 1, 10, 0.0, 0.1, 1,
       MacKind::kCsma, 0xfa0fef74c9f13049},
      {"n64-poisson5-tries1-seed2", 64, true, 5.0, 1, 10, 0.0, 0.1, 2,
       MacKind::kCsma, 0x9f09e0c22f537784},
      {"n64-poisson5-tries3-retry30", 64, true, 5.0, 3, 10, 30.0, 0.1, 2,
       MacKind::kCsma, 0x1d9738f5e7a19b3a},
      {"n8-periodic25", 8, false, 25.0, 3, 5, 0.0, 0.0, 9, MacKind::kCsma,
       0xf4abce41fb17d3ed},
      {"n32-periodic25-tries5-retry30", 32, false, 25.0, 5, 1, 30.0, 0.0, 3,
       MacKind::kCsma, 0x3321f1de11ccd520},
      {"n128-periodic25", 128, false, 25.0, 3, 5, 0.0, 0.0, 4,
       MacKind::kCsma, 0xb67c633e21ec81db, 157'311},
      {"n16-poisson10-tries2", 16, true, 10.0, 2, 2, 0.0, 0.1, 5,
       MacKind::kCsma, 0xbcf813ec86ee4534},
      {"n4-lpl50", 4, false, 100.0, 3, 5, 0.0, 0.0, 6, MacKind::kLpl,
       0x0c4d4774876bc103},
  };
  for (const TieProneCase& c : kCases) {
    auto base = BaseOptions();
    base.packet_count = 150;
    base.seed = c.seed;
    base.mac = c.mac;
    base.lpl_wakeup_interval_ms = 50.0;
    base.poisson_arrivals = c.poisson;
    base.config.pkt_interval_ms = c.interval_ms;
    base.config.max_tries = c.max_tries;
    base.config.queue_capacity = c.queue;
    base.config.retry_delay_ms = c.retry_delay_ms;
    base.interferer_duty_cycle = c.interferer_duty;
    base.disable_interference = c.interferer_duty <= 0.0;
    const auto result = node::RunNetworkSimulation(node::UniformNetwork(
        base, std::vector<double>(static_cast<std::size_t>(c.nodes), 20.0)));
    EXPECT_EQ(RunDigest(result), c.digest) << c.name;
    if (c.events != 0) {
      EXPECT_EQ(result.events_executed, c.events) << c.name;
    }
  }
}

// --- contention sweep --------------------------------------------------

TEST(Contention, SweepThreadCountInvariance) {
  experiment::ContentionOptions options;
  options.config.distance_m = 20.0;
  options.config.pkt_interval_ms = 25.0;
  options.node_counts = {1, 2, 3};
  options.base_seed = 77;
  options.packet_count = 120;

  auto serial = options;
  serial.threads = 1;
  auto wide = options;
  wide.threads = 8;
  const auto a = experiment::RunContentionSweep(serial);
  const auto b = experiment::RunContentionSweep(wide);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed) << "rung " << i;
    EXPECT_EQ(experiment::SerializeContentionRow(a[i]),
              experiment::SerializeContentionRow(b[i]))
        << "rung " << i;
    EXPECT_EQ(a[i].result.aggregate_counters, b[i].result.aggregate_counters)
        << "rung " << i;
  }
}

// A contention ladder interrupted mid-way and resumed must emit the same
// bytes as an uninterrupted run: checkpointed rows survive the write/read
// cycle verbatim, and the remaining rung, recomputed in isolation from its
// stored SweepSeed, reproduces the ladder's row exactly.
TEST(Contention, CheckpointResumeByteIdentical) {
  experiment::ContentionOptions options;
  options.config.distance_m = 20.0;
  options.config.pkt_interval_ms = 25.0;
  options.node_counts = {2, 3, 4};
  options.base_seed = 99;
  options.packet_count = 100;
  const auto reference = experiment::RunContentionSweep(options);
  ASSERT_EQ(reference.size(), 3u);

  // "Crash" after the first two rungs: persist them.
  auto interrupted = options;
  interrupted.node_counts = {2, 3};
  const auto first_half = experiment::RunContentionSweep(interrupted);
  experiment::Checkpoint checkpoint;
  checkpoint.meta.base_seed = options.base_seed;
  checkpoint.meta.packet_count = options.packet_count;
  checkpoint.meta.stride = 1;
  checkpoint.meta.space_size = options.node_counts.size();
  checkpoint.meta.config_count = options.node_counts.size();
  for (std::size_t i = 0; i < first_half.size(); ++i) {
    experiment::CheckpointRow row;
    row.index = i;
    row.csv_row = experiment::SerializeContentionRow(first_half[i]);
    checkpoint.rows.push_back(row);
  }
  const std::string path =
      testing::TempDir() + "/wsnlink_contention_checkpoint.txt";
  experiment::WriteCheckpoint(path, checkpoint);

  // Resume: reload, then recompute rung 2 from its seed contract
  // (SweepSeed(base, 2)).
  const auto loaded = experiment::ReadCheckpoint(path);
  ASSERT_EQ(loaded.rows.size(), 2u);

  node::SimulationOptions base;
  base.config = options.config;
  base.seed = experiment::SweepSeed(options.base_seed, 2);
  base.packet_count = options.packet_count;
  base.disable_interference = true;
  base.interferer_duty_cycle = 0.0;
  experiment::ContentionPoint last;
  last.nodes = 4;
  last.seed = base.seed;
  last.result = node::RunNetworkSimulation(node::UniformNetwork(
      base, std::vector<double>(4, options.config.distance_m)));

  const std::vector<std::string> resumed = {
      loaded.rows[0].csv_row, loaded.rows[1].csv_row,
      experiment::SerializeContentionRow(last)};
  for (std::size_t i = 0; i < resumed.size(); ++i) {
    EXPECT_EQ(resumed[i], experiment::SerializeContentionRow(reference[i]))
        << "rung " << i;
  }
  std::remove(path.c_str());
}

TEST(Contention, CsvRowMatchesHeaderArity) {
  experiment::ContentionOptions options;
  options.node_counts = {2};
  options.packet_count = 60;
  const auto points = experiment::RunContentionSweep(options);
  ASSERT_EQ(points.size(), 1u);
  const auto count_fields = [](const std::string& s) {
    std::size_t fields = 1;
    for (const char c : s) fields += c == ',';
    return fields;
  };
  EXPECT_EQ(count_fields(experiment::ContentionCsvHeader()),
            count_fields(experiment::SerializeContentionRow(points[0])));
}

TEST(Contention, RejectsBadLadders) {
  experiment::ContentionOptions empty;
  empty.node_counts = {};
  EXPECT_THROW(experiment::RunContentionSweep(empty), std::invalid_argument);

  experiment::ContentionOptions zero;
  zero.node_counts = {1, 0};
  EXPECT_THROW(experiment::RunContentionSweep(zero), std::invalid_argument);
}

}  // namespace
}  // namespace wsnlink
