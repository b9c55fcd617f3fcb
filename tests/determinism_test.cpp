// Thread-count determinism regression.
//
// The sweep driver promises results deterministic in (base_seed, config
// order) regardless of worker count. This pins that promise bit-exactly:
// a single-threaded sweep and an 8-worker sweep over the same configs must
// produce identical metric vectors and identical counter snapshots, and a
// campaign run through the same paths must serialize to a byte-identical
// CSV. The only state a sweep worker carries from one run to the next is
// its LinkRunScratch, so a run on a reused scratch must match a run on a
// fresh one event for event, packet for packet and attempt for attempt.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/opt/config_space.h"
#include "experiment/campaign.h"
#include "experiment/sweep.h"
#include "metrics/link_metrics.h"
#include "node/link_simulation.h"
#include "node/run_scratch.h"
#include "serve/query_service.h"
#include "serve_client.h"
#include "trace/trace.h"

namespace wsnlink {
namespace {

std::vector<core::StackConfig> TestConfigs() {
  // A deterministic slice of the paper's Table I space covering short and
  // long distances, both CCA modes and several payload/queue settings.
  const auto space = core::opt::ConfigSpace::PaperTableI();
  std::vector<core::StackConfig> configs;
  for (std::size_t i = 0; i < space.Size(); i += space.Size() / 6 + 1) {
    configs.push_back(space.At(i));
  }
  return configs;
}

experiment::SweepOptions BaseOptions(unsigned threads) {
  experiment::SweepOptions options;
  options.base_seed = 99;
  options.packet_count = 120;
  options.threads = threads;
  return options;
}

void ExpectMetricsIdentical(const metrics::LinkMetrics& a,
                            const metrics::LinkMetrics& b, std::size_t i) {
  EXPECT_EQ(a.generated, b.generated) << "config " << i;
  EXPECT_EQ(a.delivered_unique, b.delivered_unique) << "config " << i;
  EXPECT_EQ(a.duplicates, b.duplicates) << "config " << i;
  // Bit-exact double comparison is intentional: same seed, same order of
  // operations, any divergence is a determinism bug.
  EXPECT_EQ(a.per, b.per) << "config " << i;
  EXPECT_EQ(a.mean_tries_all, b.mean_tries_all) << "config " << i;
  EXPECT_EQ(a.goodput_kbps, b.goodput_kbps) << "config " << i;
  EXPECT_EQ(a.energy_uj_per_bit, b.energy_uj_per_bit) << "config " << i;
  EXPECT_EQ(a.mean_delay_ms, b.mean_delay_ms) << "config " << i;
  EXPECT_EQ(a.p99_delay_ms, b.p99_delay_ms) << "config " << i;
  EXPECT_EQ(a.delay_p50_ms, b.delay_p50_ms) << "config " << i;
  EXPECT_EQ(a.delay_max_ms, b.delay_max_ms) << "config " << i;
  EXPECT_EQ(a.plr_queue, b.plr_queue) << "config " << i;
  EXPECT_EQ(a.plr_radio, b.plr_radio) << "config " << i;
  EXPECT_EQ(a.plr_total, b.plr_total) << "config " << i;
  EXPECT_EQ(a.mean_rssi_dbm, b.mean_rssi_dbm) << "config " << i;
  EXPECT_EQ(a.mean_snr_db, b.mean_snr_db) << "config " << i;
  EXPECT_EQ(a.mean_lqi, b.mean_lqi) << "config " << i;
  EXPECT_EQ(a.duration_s, b.duration_s) << "config " << i;
}

TEST(Determinism, SweepIdenticalAcrossThreadCounts) {
  const auto configs = TestConfigs();
  ASSERT_GE(configs.size(), 4u);

  const auto serial = RunSweep(configs, BaseOptions(1));
  const auto parallel = RunSweep(configs, BaseOptions(8));
  ASSERT_EQ(serial.size(), parallel.size());

  for (std::size_t i = 0; i < serial.size(); ++i) {
    ExpectMetricsIdentical(serial[i].measured, parallel[i].measured, i);
    EXPECT_EQ(serial[i].mean_snr_db, parallel[i].mean_snr_db) << "config " << i;

    // Counter snapshots: same names, same values, same order.
    ASSERT_EQ(serial[i].counters.size(), parallel[i].counters.size())
        << "config " << i;
    EXPECT_TRUE(serial[i].counters == parallel[i].counters) << "config " << i;
    EXPECT_FALSE(serial[i].counters.empty()) << "config " << i;
  }
}

TEST(Determinism, RepeatedSweepIsIdentical) {
  const auto configs = TestConfigs();
  const auto first = RunSweep(configs, BaseOptions(4));
  const auto second = RunSweep(configs, BaseOptions(4));
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ExpectMetricsIdentical(first[i].measured, second[i].measured, i);
    EXPECT_TRUE(first[i].counters == second[i].counters) << "config " << i;
  }
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(Determinism, CampaignCsvIdenticalAcrossThreadCounts) {
  const std::string path1 = testing::TempDir() + "/campaign_t1.csv";
  const std::string path8 = testing::TempDir() + "/campaign_t8.csv";

  experiment::CampaignOptions options;
  options.stride = options.space.Size() / 8 + 1;  // 8 configurations
  options.packet_count = 80;
  options.base_seed = 77;

  options.threads = 1;
  options.summary_csv_path = path1;
  const auto serial = RunCampaign(options);

  options.threads = 8;
  options.summary_csv_path = path8;
  const auto parallel = RunCampaign(options);

  EXPECT_EQ(serial.configurations, parallel.configurations);
  EXPECT_EQ(serial.total_packets, parallel.total_packets);
  EXPECT_TRUE(serial.counters == parallel.counters);
  EXPECT_FALSE(serial.counters.empty());

  const std::string csv1 = ReadFile(path1);
  const std::string csv8 = ReadFile(path8);
  EXPECT_FALSE(csv1.empty());
  EXPECT_EQ(csv1, csv8);

  std::remove(path1.c_str());
  std::remove(path8.c_str());
}

// ---------------------------------------------------------------------------
// Reused scratch vs fresh scratch. RunLinkSimulation(options) runs on a
// fresh LinkRunScratch; a reused one must give the exact same results —
// cold (first use of a scratch) and warm (scratch previously used by a
// *different* configuration or MAC, or by a run that threw).
// ---------------------------------------------------------------------------

node::SimulationOptions ScratchRunOptions(std::size_t space_index) {
  const auto space = core::opt::ConfigSpace::PaperTableI();
  node::SimulationOptions options;
  options.config = space.At(space_index % space.Size());
  options.seed = 4242;
  options.packet_count = 150;
  options.collect_counters = true;
  return options;
}

node::SimulationOptions LplScratchRunOptions() {
  auto options = ScratchRunOptions(0);
  options.mac = node::MacKind::kLpl;
  options.lpl_wakeup_interval_ms = 50.0;
  options.config.pkt_interval_ms = 200.0;
  return options;
}

/// One run and the event stream its tracer recorded.
struct TracedRun {
  node::SimulationResult result;
  std::vector<trace::TraceEvent> events;
};

/// Runs `options` under a fresh tracer: on `scratch` when one is given,
/// otherwise on a fresh scratch (RunLinkSimulation(options)).
TracedRun RunTraced(node::SimulationOptions options,
                    node::LinkRunScratch* scratch = nullptr) {
  trace::Tracer tracer;
  options.tracer = &tracer;
  TracedRun run;
  run.result = scratch != nullptr ? node::RunLinkSimulation(options, *scratch)
                                  : node::RunLinkSimulation(options);
  run.events = tracer.Events();
  return run;
}

void ExpectRunsIdentical(const TracedRun& x, const TracedRun& y,
                         double pkt_interval_ms, const char* label) {
  const node::SimulationResult& a = x.result;
  const node::SimulationResult& b = y.result;
  EXPECT_EQ(a.unique_delivered, b.unique_delivered) << label;
  EXPECT_EQ(a.duplicates, b.duplicates) << label;
  EXPECT_EQ(a.unique_payload_bytes, b.unique_payload_bytes) << label;
  EXPECT_EQ(a.last_delivery_at, b.last_delivery_at) << label;
  EXPECT_EQ(a.end_time, b.end_time) << label;
  EXPECT_EQ(a.generated, b.generated) << label;
  EXPECT_EQ(a.mean_snr_db, b.mean_snr_db) << label;
  EXPECT_EQ(a.cca_busy, b.cca_busy) << label;
  EXPECT_EQ(a.events_executed, b.events_executed) << label;
  EXPECT_EQ(a.receiver_idle_duty, b.receiver_idle_duty) << label;
  ASSERT_EQ(a.counters.size(), b.counters.size()) << label;
  EXPECT_TRUE(a.counters == b.counters) << label;
  const auto ma = metrics::ComputeMetrics(a, pkt_interval_ms);
  const auto mb = metrics::ComputeMetrics(b, pkt_interval_ms);
  ExpectMetricsIdentical(ma, mb, 0);
  // Every packet, attempt and event (timestamps, ids, args, values).
  EXPECT_TRUE(a.log.Packets() == b.log.Packets()) << label;
  EXPECT_TRUE(a.log.Attempts() == b.log.Attempts()) << label;
  EXPECT_FALSE(x.events.empty()) << label;
  EXPECT_TRUE(x.events == y.events) << label;
}

TEST(Determinism, ScratchRunMatchesPlainRunColdAndWarm) {
  const auto options_a = ScratchRunOptions(0);
  const auto options_b = ScratchRunOptions(1234);
  const auto options_l = LplScratchRunOptions();
  const auto plain_a = RunTraced(options_a);
  const auto plain_b = RunTraced(options_b);
  const auto plain_l = RunTraced(options_l);

  node::LinkRunScratch scratch;
  const auto cold_a = RunTraced(options_a, &scratch);
  ExpectRunsIdentical(plain_a, cold_a, options_a.config.pkt_interval_ms,
                      "cold A");
  // Warm: the scratch just carried a different configuration or MAC;
  // nothing of the previous run may bleed into the next. LPL registers
  // mac.lpl_* counters that a CSMA run never revives.
  const auto warm_l = RunTraced(options_l, &scratch);
  ExpectRunsIdentical(plain_l, warm_l, options_l.config.pkt_interval_ms,
                      "warm LPL after A");
  const auto warm_b = RunTraced(options_b, &scratch);
  ExpectRunsIdentical(plain_b, warm_b, options_b.config.pkt_interval_ms,
                      "warm B");
  const auto warm_l2 = RunTraced(options_l, &scratch);
  ExpectRunsIdentical(plain_l, warm_l2, options_l.config.pkt_interval_ms,
                      "warm LPL after B");
  const auto warm_a = RunTraced(options_a, &scratch);
  ExpectRunsIdentical(plain_a, warm_a, options_a.config.pkt_interval_ms,
                      "warm A");
}

TEST(Determinism, ScratchSurvivesARunThatThrows) {
  // A 5 ms LPL wakeup passes option validation, but LplMac's constructor
  // rejects it (the 11 ms probe must fit inside the interval): the run
  // throws with the stack half built, after the runner rewound the scratch.
  auto failing = LplScratchRunOptions();
  failing.lpl_wakeup_interval_ms = 5.0;
  const auto options_a = ScratchRunOptions(0);
  const auto options_b = ScratchRunOptions(1234);
  const auto plain_a = RunTraced(options_a);

  node::LinkRunScratch scratch;
  static_cast<void>(node::RunLinkSimulation(options_b, scratch));
  EXPECT_THROW(static_cast<void>(node::RunLinkSimulation(failing, scratch)),
               std::invalid_argument);
  const auto after = RunTraced(options_a, &scratch);
  ExpectRunsIdentical(plain_a, after, options_a.config.pkt_interval_ms,
                      "after a throw");
}

TEST(Determinism, SweepScratchPathMatchesTracedPathMetrics) {
  // Sweep workers run each config on their recycled scratch with no
  // tracer. A standalone traced run of config i under SweepSeed(base, i)
  // must give the same metrics and every counter, the kernel's sim.*
  // included.
  const auto configs = TestConfigs();
  const auto options = BaseOptions(4);
  const auto points = RunSweep(configs, options);
  ASSERT_EQ(points.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    node::SimulationOptions single;
    single.config = configs[i];
    single.seed = experiment::SweepSeed(options.base_seed, i);
    single.packet_count = options.packet_count;
    trace::Tracer tracer;
    single.tracer = &tracer;
    const auto traced = node::RunLinkSimulation(single);
    ExpectMetricsIdentical(
        points[i].measured,
        metrics::ComputeMetrics(traced, configs[i].pkt_interval_ms), i);
    EXPECT_FALSE(points[i].counters.empty()) << "config " << i;
    EXPECT_TRUE(points[i].counters == traced.counters) << "config " << i;
    EXPECT_FALSE(tracer.Events().empty()) << "config " << i;
  }
}

// ---------------------------------------------------------------------------
// Tuning service: the same determinism contract, one layer up. The replies
// to a pipelined request stream must be a pure function of the stream —
// across worker counts, across repeat runs, and across cold/cached states.
// ---------------------------------------------------------------------------

std::vector<std::string> ServeQueryMix() {
  // A mix of what_if (several seeds/configs), optimize, malformed lines
  // and an interleaved duplicate (so the batch exercises concurrent
  // compute, cache stores and error paths together).
  std::vector<std::string> lines;
  const int pa_levels[] = {7, 15, 23, 31};
  for (int i = 0; i < 8; ++i) {
    lines.push_back(
        "{\"verb\":\"what_if\",\"distance_m\":20,\"pa_level\":" +
        std::to_string(pa_levels[i % 4]) +
        ",\"payload_bytes\":" + std::to_string(30 + 20 * (i % 3)) +
        ",\"packets\":60,\"seed\":" + std::to_string(1 + i / 4) + "}");
  }
  lines.push_back(lines[2]);  // duplicate: waits for the first copy's miss
  lines.push_back(
      "{\"verb\":\"optimize\",\"objective\":\"energy\",\"distance_m\":20,"
      "\"min_goodput_kbps\":2}");
  lines.push_back("definitely not a request");
  lines.push_back(lines[5]);
  return lines;
}

TEST(Determinism, ServeBatchIdenticalAcrossThreadCounts) {
  const auto lines = ServeQueryMix();

  serve::ServiceOptions serial_options;
  serial_options.threads = 1;
  serve::QueryService serial(serial_options);
  const auto serial_replies =
      serve_test::ServeOverOneConnection(serial, lines);

  serve::ServiceOptions parallel_options;
  parallel_options.threads = 8;
  serve::QueryService parallel(parallel_options);
  const auto parallel_replies =
      serve_test::ServeOverOneConnection(parallel, lines);

  ASSERT_EQ(serial_replies.size(), lines.size());
  ASSERT_EQ(parallel_replies.size(), lines.size());
  serve::QueryService reference(serve::ServiceOptions{});
  for (std::size_t i = 0; i < lines.size(); ++i) {
    // Byte-identical, not just equivalent: responses are canonical.
    EXPECT_EQ(serial_replies[i], parallel_replies[i]) << "line " << i;
    EXPECT_EQ(serial_replies[i], reference.Answer(lines[i])) << "line " << i;
  }
}

TEST(Determinism, ServeCachedRunMatchesColdRunByteExact) {
  const auto lines = ServeQueryMix();

  serve::ServiceOptions options;
  options.threads = 8;
  serve::QueryService service(options);

  const auto cold = serve_test::ServeOverOneConnection(service, lines);
  const auto stats_after_cold = service.Stats();
  EXPECT_GT(stats_after_cold.cache_entries, 0u);

  const auto cached = serve_test::ServeOverOneConnection(service, lines);
  const auto stats_after_cached = service.Stats();
  // The repeat run computed nothing new...
  EXPECT_EQ(stats_after_cached.computed_what_if,
            stats_after_cold.computed_what_if);
  EXPECT_EQ(stats_after_cached.computed_optimize,
            stats_after_cold.computed_optimize);

  // ...and answered with the exact cold-run bytes.
  ASSERT_EQ(cold.size(), cached.size());
  for (std::size_t i = 0; i < cold.size(); ++i) {
    EXPECT_EQ(cold[i], cached[i]) << "line " << i;
  }
}

}  // namespace
}  // namespace wsnlink
