// The campaign workload: experiment::RunCampaign as `run_campaign
// --checkpoint` runs it, and its traced per-config replay.
#include <exception>
#include <filesystem>
#include <sstream>

#include "alloc_count.h"
#include "experiment/checkpoint.h"
#include "experiment/dataset.h"
#include "experiment/sweep.h"
#include "metrics/link_metrics.h"
#include "node/run_scratch.h"
#include "util/thread_pool.h"
#include "workload_common.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace ex = wsnlink::experiment;
namespace node = wsnlink::node;

namespace {

// FNV-1a digest of kDefaultSeed's summary CSV. A behaviour change in the
// simulator changes it; record the new value from a run's "output_digest"
// line once the change is known to be intended.
constexpr std::uint64_t kCampaignCsvDigest = 0x989190bf05a2702dULL;

// Nominal seconds of one pass on a 4-vCPU x86 host; only used to turn
// --seconds into a pass count.
constexpr double kCampaignPassSeconds = 1.2;

struct CampaignSetUp {
  ex::CampaignOptions options;
  std::vector<wsnlink::core::StackConfig> configs;
};

CampaignSetUp SetUpCampaign(const RunSpec& spec) {
  CampaignSetUp s;
  s.options = MakeCampaignOptions(spec.seed);
  s.options.summary_csv_path = spec.work_dir + "/summary.csv";
  s.options.checkpoint_path = spec.work_dir + "/campaign.ckpt";
  s.configs = CampaignConfigs(s.options);
  (void)wsnlink::util::ThreadPool::Shared();
  return s;
}

void RemoveCampaignFiles(const ex::CampaignOptions& options) {
  fs::remove(options.summary_csv_path);
  fs::remove(options.checkpoint_path);
}

struct CampaignReplay {
  std::string csv;
  std::uint64_t wall_ns = 0;
  std::uint64_t events = 0;
  std::uint64_t tx_attempts = 0;
  std::uint64_t packets_generated = 0;
  std::uint64_t checkpoint_bytes = 0;
  std::uint64_t allocs = 0;
  std::size_t failed = 0;
};

/// RunCampaign's per-config pipeline, one thread, through the public calls
/// it is made of: simulate, harvest, serialize the row, rewrite the
/// checkpoint every kCampaignCheckpointEvery rows and at the end, write the
/// summary CSV.
CampaignReplay ReplayCampaign(const CampaignSetUp& s, const std::string& dir,
                              SpanRecorder& rec) {
  const auto& options = s.options;
  const std::string ckpt_path = dir + "/replay.ckpt";
  const std::string csv_path = dir + "/replay.csv";
  fs::remove(ckpt_path);
  fs::remove(csv_path);

  ex::CheckpointMeta meta;
  meta.base_seed = options.base_seed;
  meta.packet_count = options.packet_count;
  meta.stride = options.stride;
  meta.space_size = options.space.Size();
  meta.config_count = s.configs.size();

  CampaignReplay out;
  node::LinkRunScratch scratch;
  std::vector<std::string> rows(s.configs.size());
  const auto write_checkpoint = [&](std::size_t done) {
    Scoped span(rec, "experiment.checkpoint");
    ex::Checkpoint checkpoint;
    checkpoint.meta = meta;
    checkpoint.rows.reserve(done);
    for (std::size_t i = 0; i < done; ++i) {
      ex::CheckpointRow row;
      row.index = i;
      row.csv_row = rows[i];
      checkpoint.rows.push_back(std::move(row));
    }
    ex::WriteCheckpoint(ckpt_path, checkpoint);
    out.checkpoint_bytes += fs::file_size(ckpt_path);
  };

  const std::uint64_t allocs0 = AllocCount();
  const std::uint64_t t0 = NowNs();
  for (std::size_t i = 0; i < s.configs.size(); ++i) {
    Scoped config_span(rec, "bench.config");
    ex::SweepPoint point;
    point.config = s.configs[i];
    try {
      node::SimulationOptions sim;
      sim.config = s.configs[i];
      sim.seed = ex::SweepSeed(options.base_seed, i);
      sim.packet_count = options.packet_count;
      sim.collect_counters = options.collect_counters;
      node::SimulationResult result;
      {
        Scoped span(rec, "node.link_run");
        result = node::RunLinkSimulation(sim, scratch);
      }
      {
        Scoped span(rec, "metrics.harvest");
        point.measured = wsnlink::metrics::ComputeMetrics(
            result, s.configs[i].pkt_interval_ms, scratch.delay_buf);
      }
      point.mean_snr_db = result.mean_snr_db;
      out.events += result.events_executed;
      out.tx_attempts += CounterValue(result.counters, "mac.tx_attempts");
      out.packets_generated +=
          CounterValue(result.counters, "app.packets_generated");
      point.counters = std::move(result.counters);
      result.log.ExtractStorage(scratch.packet_buf, scratch.attempt_buf);
    } catch (const std::exception& e) {
      point = ex::SweepPoint{};
      point.config = s.configs[i];
      point.failed = true;
      point.error = e.what();
      ++out.failed;
    }
    {
      Scoped span(rec, "experiment.row");
      rows[i] = ex::SerializeSummaryRow(point);
    }
    if ((i + 1) % options.checkpoint_every == 0) write_checkpoint(i + 1);
  }
  write_checkpoint(rows.size());
  {
    Scoped span(rec, "experiment.csv");
    ex::WriteSummaryCsvRows(csv_path, rows);
  }
  out.wall_ns = NowNs() - t0;
  out.allocs = AllocCount() - allocs0;
  out.csv = ReadFile(csv_path);
  return out;
}

/// The final checkpoint must re-read with every row present, in order, and
/// matching the summary CSV's rows.
void CheckCampaignCheckpoint(Result& r, const CampaignSetUp& s,
                             const std::string& csv) {
  const ex::Checkpoint checkpoint = ex::ReadCheckpoint(s.options.checkpoint_path);
  std::vector<std::string> lines;
  std::istringstream in(csv);
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  bool ok = checkpoint.rows.size() == s.configs.size() &&
            lines.size() == s.configs.size() + 1;
  for (std::size_t i = 0; ok && i < checkpoint.rows.size(); ++i) {
    const auto& row = checkpoint.rows[i];
    ok = row.index == i && !row.failed && row.csv_row == lines[i + 1];
  }
  r.Check(ok, "campaign: final checkpoint does not re-read with every row");
}

struct CampaignPass {
  std::string csv;
  std::uint64_t wall_ns = 0;
  std::size_t failed = 0;
};

/// One RunCampaign call. With `latencies_us`, records the latency of each
/// checkpoint interval: the time from one checkpoint to the next, i.e. the
/// wait for a block of kCampaignCheckpointEvery configs to become durable.
/// The sweep runs on the calling thread and fires `progress` after each
/// completion's checkpoint write, so interval k ends at completion
/// (k + 1) * kCampaignCheckpointEvery; the last one ends when RunCampaign
/// returns, after the final checkpoint.
CampaignPass RunCampaignPass(Result& r, const CampaignSetUp& s,
                             std::vector<double>* latencies_us) {
  RemoveCampaignFiles(s.options);
  ex::CampaignOptions options = s.options;
  std::uint64_t last = 0;
  if (latencies_us != nullptr) {
    options.progress = [&](std::size_t done, std::size_t) {
      if (done % options.checkpoint_every != 0) return;
      const std::uint64_t now = NowNs();
      latencies_us->push_back(static_cast<double>(now - last) * 1e-3);
      last = now;
    };
  }
  last = NowNs();
  const std::uint64_t t0 = last;
  const ex::CampaignResult result = ex::RunCampaign(options);
  CampaignPass pass;
  const std::uint64_t end = NowNs();
  pass.wall_ns = end - t0;
  if (latencies_us != nullptr && s.configs.size() % options.checkpoint_every) {
    latencies_us->push_back(static_cast<double>(end - last) * 1e-3);
  }
  pass.failed = result.configs_failed;
  r.Check(result.complete, "campaign: RunCampaign did not complete");
  r.Check(result.checkpoint_write_error.empty(),
          "campaign: checkpoint write failed: " + result.checkpoint_write_error);
  pass.csv = ReadFile(options.summary_csv_path);
  return pass;
}

}  // namespace

double TimeCampaignSetUp(const RunSpec& spec) {
  const std::uint64_t t0 = NowNs();
  const CampaignSetUp s = SetUpCampaign(spec);
  return Seconds(NowNs() - t0);
}

Result MeasureCampaign(const RunSpec& spec) {
  Result r;
  const CampaignSetUp s = SetUpCampaign(spec);
  const int passes = Passes(spec, kCampaignPassSeconds, 3);
  std::vector<double> rates;
  std::vector<double> latencies_us;
  latencies_us.reserve((s.configs.size() / kCampaignCheckpointEvery + 1) *
                       static_cast<std::size_t>(passes));
  std::string csv;
  for (int p = 0; p < passes; ++p) {
    const CampaignPass pass = RunCampaignPass(r, s, &latencies_us);
    rates.push_back(static_cast<double>(s.configs.size()) / Seconds(pass.wall_ns));
    r.attempted += s.configs.size();
    r.failed += pass.failed;
    if (p == 0) {
      csv = pass.csv;
    } else {
      r.Check(pass.csv == csv, "campaign: summary CSV differs between passes");
    }
  }
  CheckCampaignCheckpoint(r, s, csv);
  SpanRecorder off(false);
  const CampaignReplay replay = ReplayCampaign(s, spec.work_dir, off);
  r.Check(replay.csv == csv,
          "campaign: replay CSV differs from RunCampaign's summary CSV");
  CheckDigest(r, spec, "campaign", csv, kCampaignCsvDigest);

  AddThroughput(r, rates);
  AddItemLatency(r, latencies_us,
                 "one checkpoint interval (64 configs made durable)");
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
  r.notes.push_back("passes " + std::to_string(passes) + " x " +
                    std::to_string(s.configs.size()) + " configs, " +
                    std::to_string(kCampaignPackets) + " packets each");
  return r;
}

Result TraceCampaign(const RunSpec& spec) {
  Result r;
  const CampaignSetUp s = SetUpCampaign(spec);
  const CampaignPass pass = RunCampaignPass(r, s, nullptr);
  r.attempted += s.configs.size();
  r.failed += pass.failed;
  CheckCampaignCheckpoint(r, s, pass.csv);

  // Untraced replays on both sides of the traced one, so warm-up and drift
  // do not show up as tracing overhead.
  SpanRecorder off(false);
  const CampaignReplay before = ReplayCampaign(s, spec.work_dir, off);
  SpanRecorder rec(true, s.configs.size() * 5 + 256);
  const CampaignReplay traced = ReplayCampaign(s, spec.work_dir, rec);
  const CampaignReplay untraced = ReplayCampaign(s, spec.work_dir, off);
  r.Check(traced.csv == pass.csv && before.csv == pass.csv &&
              untraced.csv == pass.csv,
          "campaign: replay CSV differs from RunCampaign's summary CSV");
  r.failed += traced.failed;

  const auto& spans = rec.Spans();
  const auto self = SelfTimesNs(spans);
  WriteSpans(spec, rec, self);
  const double configs = static_cast<double>(s.configs.size());
  const SpanStats link = StatsFor(spans, self, "node.link_run");
  const SpanStats ckpt = StatsFor(spans, self, "experiment.checkpoint");
  r.Add("node.link_run_us", MeanSelf(spans, self, "node.link_run", 1e3), "us");
  r.Add("sim.events_per_config", static_cast<double>(traced.events) / configs,
        "count");
  r.Add("sim.ns_per_event",
        Ratio(static_cast<double>(link.total_ns),
              static_cast<double>(traced.events)),
        "ns");
  r.Add("metrics.harvest_us", MeanSelf(spans, self, "metrics.harvest", 1e3),
        "us");
  r.Add("experiment.row_us", MeanSelf(spans, self, "experiment.row", 1e3), "us");
  r.Add("experiment.checkpoint_ms",
        MeanSelf(spans, self, "experiment.checkpoint", 1e6), "ms");
  r.Add("experiment.checkpoint_mb",
        static_cast<double>(traced.checkpoint_bytes) / 1e6, "MB");
  r.Add("experiment.csv_ms", MeanSelf(spans, self, "experiment.csv", 1e6), "ms");
  r.Add("util.allocs_per_config", static_cast<double>(untraced.allocs) / configs,
        "count");
  r.Add("mac.attempts_per_packet",
        Ratio(static_cast<double>(traced.tx_attempts),
              static_cast<double>(traced.packets_generated)),
        "count");
  r.Add("trace.span_coverage",
        Ratio(static_cast<double>(LayerCoverageNs(spans)),
              static_cast<double>(traced.wall_ns)),
        "ratio");
  r.Add("trace.overhead_s", Overhead(traced.wall_ns, before.wall_ns,
                                     untraced.wall_ns),
        "s");
  r.notes.push_back(
      "shares of traced wall: link_run " +
      std::to_string(Ratio(static_cast<double>(link.self_ns),
                           static_cast<double>(traced.wall_ns))) +
      ", checkpoint " +
      std::to_string(Ratio(static_cast<double>(ckpt.self_ns),
                           static_cast<double>(traced.wall_ns))) +
      ", harvest " +
      std::to_string(Ratio(
          static_cast<double>(StatsFor(spans, self, "metrics.harvest").self_ns),
          static_cast<double>(traced.wall_ns))));
  return r;
}

}  // namespace perfbench
