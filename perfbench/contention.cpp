// The contention workload: experiment::RunContentionSweep over an
// equal-work node ladder as `contention_sweep` runs it, and its traced
// replay through node::RunNetworkSimulation.
#include <exception>

#include "experiment/sweep.h"
#include "node/network_simulation.h"
#include "util/thread_pool.h"
#include "workload_common.h"

namespace perfbench {

namespace ex = wsnlink::experiment;
namespace node = wsnlink::node;

namespace {

// FNV-1a digest of kDefaultSeed's contention rows (see campaign.cpp).
constexpr std::uint64_t kContentionRowsDigest = 0xa22db42014e92dc8ULL;

// Nominal seconds of one ladder pass on a 4-vCPU x86 host.
constexpr double kContentionPassSeconds = 2.0;

struct ContentionSetUp {
  std::vector<ContentionRun> runs;
};

ContentionSetUp SetUpContention(const RunSpec& spec) {
  ContentionSetUp s;
  s.runs = MakeContentionRuns(spec.seed);
  (void)wsnlink::util::ThreadPool::Shared();
  return s;
}

/// The network RunContentionSweep builds for a single-entry ladder.
node::NetworkOptions ContentionNetwork(const ex::ContentionOptions& o) {
  node::SimulationOptions base;
  base.config = o.config;
  base.mac = o.mac;
  base.lpl_wakeup_interval_ms = o.lpl_wakeup_interval_ms;
  base.seed = ex::SweepSeed(o.base_seed, 0);
  base.packet_count = o.packet_count;
  base.disable_interference = o.disable_interference;
  base.interferer_duty_cycle = o.interferer_duty_cycle;
  node::NetworkOptions network;
  network.base = base;
  network.shared_medium = o.shared_medium;
  network.capture_margin_db = o.capture_margin_db;
  network.sim_threads = o.sim_threads;
  const int count = o.node_counts.front();
  for (int n = 0; n < count; ++n) {
    node::NodeSpec spec;
    spec.config = o.config;
    spec.config.distance_m = o.config.distance_m + n * o.node_spacing_m;
    network.nodes.push_back(spec);
  }
  return network;
}

/// Drops a run's per-node results (packet and attempt logs), keeping the
/// aggregate tallies rows and per-layer ratios are made of, so the process
/// holds one network's logs at a time.
ex::ContentionPoint Slim(ex::ContentionPoint point) {
  point.result.nodes = {};
  point.result.aggregate_counters = {};
  point.result.run_counters = {};
  return point;
}

struct ContentionPass {
  std::vector<std::string> rows;
  std::vector<ex::ContentionPoint> points;
  std::uint64_t wall_ns = 0;
  std::uint64_t node_packets = 0;
  std::size_t failed = 0;
};

ContentionPass RunContentionPass(const ContentionSetUp& s,
                                 std::vector<double>* latencies_us) {
  ContentionPass pass;
  const std::uint64_t t0 = NowNs();
  for (const ContentionRun& run : s.runs) {
    const std::uint64_t a = NowNs();
    try {
      std::vector<ex::ContentionPoint> points =
          ex::RunContentionSweep(run.options);
      pass.node_packets += points.front().result.generated;
      pass.points.push_back(Slim(std::move(points.front())));
    } catch (const std::exception& e) {
      ++pass.failed;
      pass.points.emplace_back();
    }
    if (latencies_us != nullptr) {
      latencies_us->push_back(static_cast<double>(NowNs() - a) * 1e-3);
    }
  }
  pass.wall_ns = NowNs() - t0;
  for (const auto& p : pass.points) {
    pass.rows.push_back(ex::SerializeContentionRow(p));
  }
  return pass;
}

/// The same ladder through node::RunNetworkSimulation, one span per run.
ContentionPass ReplayContention(const ContentionSetUp& s, SpanRecorder& rec) {
  ContentionPass pass;
  const std::uint64_t t0 = NowNs();
  for (const ContentionRun& run : s.runs) {
    const node::NetworkOptions network = ContentionNetwork(run.options);
    ex::ContentionPoint point;
    point.nodes = run.nodes;
    point.seed = network.base.seed;
    try {
      Scoped span(rec, "node.network_run");
      point.result = node::RunNetworkSimulation(network);
    } catch (const std::exception&) {
      ++pass.failed;
    }
    pass.node_packets += point.result.generated;
    pass.points.push_back(Slim(std::move(point)));
  }
  pass.wall_ns = NowNs() - t0;
  for (const auto& p : pass.points) {
    pass.rows.push_back(ex::SerializeContentionRow(p));
  }
  return pass;
}

std::string JoinRows(const std::vector<std::string>& rows) {
  std::string all;
  for (const auto& row : rows) {
    all += row;
    all += '\n';
  }
  return all;
}

}  // namespace

double TimeContentionSetUp(const RunSpec& spec) {
  const std::uint64_t t0 = NowNs();
  const ContentionSetUp s = SetUpContention(spec);
  return Seconds(NowNs() - t0);
}

Result MeasureContention(const RunSpec& spec) {
  Result r;
  const ContentionSetUp s = SetUpContention(spec);
  const int passes = Passes(spec, kContentionPassSeconds, 2);
  std::vector<double> rates;
  std::vector<double> latencies_us;
  std::vector<std::string> rows;
  for (int p = 0; p < passes; ++p) {
    const ContentionPass pass = RunContentionPass(s, &latencies_us);
    rates.push_back(static_cast<double>(pass.node_packets) /
                    Seconds(pass.wall_ns));
    r.attempted += s.runs.size();
    r.failed += pass.failed;
    if (p == 0) {
      rows = pass.rows;
    } else {
      r.Check(pass.rows == rows, "contention: rows differ between passes");
    }
  }
  SpanRecorder off(false);
  const ContentionPass replay = ReplayContention(s, off);
  r.Check(replay.rows == rows,
          "contention: RunNetworkSimulation replay rows differ from "
          "RunContentionSweep's");
  CheckDigest(r, spec, "contention", JoinRows(rows), kContentionRowsDigest);

  AddThroughput(r, rates);
  AddItemLatency(r, latencies_us, "one rung replica (a network run)");
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
  r.notes.push_back("passes " + std::to_string(passes) + " x " +
                    std::to_string(s.runs.size()) + " network runs");
  return r;
}

Result TraceContention(const RunSpec& spec) {
  Result r;
  const ContentionSetUp s = SetUpContention(spec);
  const ContentionPass pass = RunContentionPass(s, nullptr);
  r.attempted += s.runs.size();
  r.failed += pass.failed;

  SpanRecorder off(false);
  const ContentionPass before = ReplayContention(s, off);
  SpanRecorder rec(true, s.runs.size() + 16);
  const ContentionPass traced = ReplayContention(s, rec);
  const ContentionPass untraced = ReplayContention(s, off);
  r.Check(traced.rows == pass.rows && before.rows == pass.rows &&
              untraced.rows == pass.rows,
          "contention: RunNetworkSimulation replay rows differ from "
          "RunContentionSweep's");
  r.failed += traced.failed;

  const auto& spans = rec.Spans();
  const auto self = SelfTimesNs(spans);
  WriteSpans(spec, rec, self);
  for (const int nodes : kLadder) {
    double run_ns = 0, runs = 0, events = 0, generated = 0, cca = 0,
           attempts = 0, collisions = 0, frames = 0, drops = 0, delivered = 0;
    for (std::size_t i = 0; i < s.runs.size(); ++i) {
      if (s.runs[i].nodes != nodes) continue;
      const node::NetworkResult& n = traced.points[i].result;
      run_ns += static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      runs += 1;
      events += static_cast<double>(n.events_executed);
      generated += static_cast<double>(n.generated);
      cca += static_cast<double>(n.cca_busy);
      attempts += static_cast<double>(n.attempts);
      collisions += static_cast<double>(n.medium.collisions);
      frames += static_cast<double>(n.medium.frames);
      drops += static_cast<double>(n.queue_drops);
      delivered += static_cast<double>(n.delivered_unique);
    }
    const std::string suffix = ".n" + std::to_string(nodes);
    r.Add("node.network_run_ms" + suffix, run_ns / runs / 1e6, "ms");
    r.Add("sim.events_per_packet" + suffix, Ratio(events, generated), "count");
    r.Add("sim.ns_per_event" + suffix, Ratio(run_ns, events), "ns");
    r.Add("mac.cca_busy_per_frame" + suffix, Ratio(cca, attempts), "count");
    r.Add("channel.collision_ratio" + suffix, Ratio(collisions, frames),
          "ratio");
    r.Add("link.queue_drop_ratio" + suffix, Ratio(drops, generated), "ratio");
    r.Add("app.delivery_ratio" + suffix, Ratio(delivered, generated), "ratio");
  }
  r.Add("trace.span_coverage",
        Ratio(static_cast<double>(LayerCoverageNs(spans)),
              static_cast<double>(traced.wall_ns)),
        "ratio");
  r.Add("trace.overhead_s", Overhead(traced.wall_ns, before.wall_ns,
                                     untraced.wall_ns),
        "s");
  return r;
}

}  // namespace perfbench
