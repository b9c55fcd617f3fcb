// Thread-count determinism regression.
//
// The sweep driver promises results deterministic in (base_seed, config
// order) regardless of worker count. This pins that promise bit-exactly:
// a single-threaded sweep and an 8-worker sweep over the same configs must
// produce identical metric vectors, identical counter snapshots and —
// with capture_traces on — identical per-run event streams. A campaign
// run through the same paths must serialize to a byte-identical CSV.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/opt/config_space.h"
#include "experiment/campaign.h"
#include "experiment/sweep.h"
#include "metrics/latency.h"
#include "metrics/link_metrics.h"
#include "node/link_simulation.h"
#include "node/run_scratch.h"
#include "serve/query_service.h"

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
  options.capture_traces = true;
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

    // Event streams: bit-identical traces (timestamps, ids, args, values).
    ASSERT_EQ(serial[i].events.size(), parallel[i].events.size())
        << "config " << i;
    EXPECT_TRUE(serial[i].events == parallel[i].events) << "config " << i;
    EXPECT_FALSE(serial[i].events.empty()) << "config " << i;
  }
}

TEST(Determinism, LatencyProfileIdenticalAcrossThreadCounts) {
  // The validation harness byte-compares latency histograms; pin the whole
  // per-packet sojourn-time record, not just the summary quantiles.
  const auto configs = TestConfigs();
  const auto serial = RunSweepRaw(configs, BaseOptions(1));
  const auto parallel = RunSweepRaw(configs, BaseOptions(8));
  ASSERT_EQ(serial.size(), parallel.size());

  bool any_delivered = false;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto profile1 = metrics::CollectLatencies(serial[i]);
    const auto profile8 = metrics::CollectLatencies(parallel[i]);
    EXPECT_EQ(profile1.Serialize(), profile8.Serialize()) << "config " << i;
    EXPECT_TRUE(profile1.queue_depths_at_arrival ==
                profile8.queue_depths_at_arrival)
        << "config " << i;
    if (!profile1.Empty()) {
      any_delivered = true;
      const auto hist1 = profile1.ToHistogram(0.0, 500.0, 32);
      const auto hist8 = profile8.ToHistogram(0.0, 500.0, 32);
      ASSERT_EQ(hist1.BinCount(), hist8.BinCount()) << "config " << i;
      for (std::size_t bin = 0; bin < hist1.BinCount(); ++bin) {
        EXPECT_EQ(hist1.Count(bin), hist8.Count(bin))
            << "config " << i << " bin " << bin;
      }
      EXPECT_EQ(hist1.Underflow(), hist8.Underflow()) << "config " << i;
      EXPECT_EQ(hist1.Overflow(), hist8.Overflow()) << "config " << i;
    }
  }
  EXPECT_TRUE(any_delivered);
}

TEST(Determinism, RepeatedSweepIsIdentical) {
  const auto configs = TestConfigs();
  const auto first = RunSweep(configs, BaseOptions(4));
  const auto second = RunSweep(configs, BaseOptions(4));
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    ExpectMetricsIdentical(first[i].measured, second[i].measured, i);
    EXPECT_TRUE(first[i].events == second[i].events) << "config " << i;
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
// Scratch-recycled runs vs plain runs. The arena-backed overload promises
// the exact results of the allocating one — cold (first use of a scratch)
// and warm (scratch previously used by a *different* configuration).
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

void ExpectResultsIdentical(const node::SimulationResult& a,
                            const node::SimulationResult& b,
                            double pkt_interval_ms, const char* label) {
  EXPECT_EQ(a.unique_delivered, b.unique_delivered) << label;
  EXPECT_EQ(a.duplicates, b.duplicates) << label;
  EXPECT_EQ(a.unique_payload_bytes, b.unique_payload_bytes) << label;
  EXPECT_EQ(a.last_delivery_at, b.last_delivery_at) << label;
  EXPECT_EQ(a.end_time, b.end_time) << label;
  EXPECT_EQ(a.generated, b.generated) << label;
  EXPECT_EQ(a.mean_snr_db, b.mean_snr_db) << label;
  EXPECT_EQ(a.cca_busy, b.cca_busy) << label;
  EXPECT_EQ(a.events_executed, b.events_executed) << label;
  ASSERT_EQ(a.counters.size(), b.counters.size()) << label;
  EXPECT_TRUE(a.counters == b.counters) << label;
  const auto ma = metrics::ComputeMetrics(a, pkt_interval_ms);
  const auto mb = metrics::ComputeMetrics(b, pkt_interval_ms);
  ExpectMetricsIdentical(ma, mb, 0);
}

TEST(Determinism, ScratchRunMatchesPlainRunColdAndWarm) {
  const auto options_a = ScratchRunOptions(0);
  const auto options_b = ScratchRunOptions(1234);
  const auto plain_a = node::RunLinkSimulation(options_a);
  const auto plain_b = node::RunLinkSimulation(options_b);

  node::LinkRunScratch scratch;
  const auto cold_a = node::RunLinkSimulation(options_a, scratch);
  ExpectResultsIdentical(plain_a, cold_a, options_a.config.pkt_interval_ms,
                         "cold A");
  // Warm: the scratch just carried a different configuration; nothing of B
  // may bleed into a rerun of A.
  const auto warm_b = node::RunLinkSimulation(options_b, scratch);
  ExpectResultsIdentical(plain_b, warm_b, options_b.config.pkt_interval_ms,
                         "warm B");
  const auto warm_a = node::RunLinkSimulation(options_a, scratch);
  ExpectResultsIdentical(plain_a, warm_a, options_a.config.pkt_interval_ms,
                         "warm A");
}

TEST(Determinism, SweepWithoutTracesIdenticalAcrossThreadCounts) {
  // capture_traces=false routes workers through the thread-local scratch
  // (zero-alloc) path; worker count still must not leak into results.
  const auto configs = TestConfigs();
  auto options1 = BaseOptions(1);
  options1.capture_traces = false;
  auto options8 = BaseOptions(8);
  options8.capture_traces = false;

  const auto serial = RunSweep(configs, options1);
  const auto parallel = RunSweep(configs, options8);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ExpectMetricsIdentical(serial[i].measured, parallel[i].measured, i);
    ASSERT_EQ(serial[i].counters.size(), parallel[i].counters.size())
        << "config " << i;
    EXPECT_TRUE(serial[i].counters == parallel[i].counters) << "config " << i;
    EXPECT_FALSE(serial[i].counters.empty()) << "config " << i;
  }
}

TEST(Determinism, SweepScratchPathMatchesTracedPathMetrics) {
  // The traced sweep path allocates per run; the untraced one recycles
  // scratch. Metrics and every counter, the kernel's sim.* included, must
  // not depend on which path ran.
  const auto configs = TestConfigs();
  auto traced = BaseOptions(4);
  auto untraced = BaseOptions(4);
  untraced.capture_traces = false;

  const auto with_traces = RunSweep(configs, traced);
  const auto without_traces = RunSweep(configs, untraced);
  ASSERT_EQ(with_traces.size(), without_traces.size());
  for (std::size_t i = 0; i < with_traces.size(); ++i) {
    ExpectMetricsIdentical(with_traces[i].measured, without_traces[i].measured,
                           i);
    EXPECT_FALSE(with_traces[i].counters.empty()) << "config " << i;
    EXPECT_TRUE(with_traces[i].counters == without_traces[i].counters)
        << "config " << i;
  }
}

// ---------------------------------------------------------------------------
// Tuning service: the same determinism contract, one layer up. A batch's
// response vector must be a pure function of its request vector — across
// worker counts, across repeat runs, and across cold/cached states.
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
  lines.push_back(lines[2]);  // duplicate: hit-vs-compute race fodder
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
  const auto serial_replies = serial.AnswerBatch(lines);

  serve::ServiceOptions parallel_options;
  parallel_options.threads = 8;
  serve::QueryService parallel(parallel_options);
  const auto parallel_replies = parallel.AnswerBatch(lines);

  ASSERT_EQ(serial_replies.size(), lines.size());
  ASSERT_EQ(parallel_replies.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    // Byte-identical, not just equivalent: responses are canonical.
    EXPECT_EQ(serial_replies[i], parallel_replies[i]) << "line " << i;
  }
}

TEST(Determinism, ServeCachedRunMatchesColdRunByteExact) {
  const auto lines = ServeQueryMix();

  serve::ServiceOptions options;
  options.threads = 8;
  serve::QueryService service(options);

  const auto cold = service.AnswerBatch(lines);
  const auto stats_after_cold = service.Stats();
  EXPECT_GT(stats_after_cold.cache_entries, 0u);

  const auto cached = service.AnswerBatch(lines);
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
