#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "experiment/checkpoint.h"
#include "workload_common.h"

namespace perfbench {

// Dispatch to the three workloads, the per-layer metric catalogue, and the
// helpers the workload files share.

namespace {

std::string Hex(std::uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

/// Every per-layer metric, in report order, with its unit.
std::vector<Metric> PerLayerCatalogue() {
  std::vector<Metric> all = {
      {"node.link_run_us", 0, "us"},
      {"sim.events_per_config", 0, "count"},
      {"sim.ns_per_event", 0, "ns"},
      {"metrics.harvest_us", 0, "us"},
      {"experiment.row_us", 0, "us"},
      {"experiment.checkpoint_ms", 0, "ms"},
      {"experiment.checkpoint_mb", 0, "MB"},
      {"experiment.csv_ms", 0, "ms"},
      {"util.allocs_per_config", 0, "count"},
      {"mac.attempts_per_packet", 0, "count"},
  };
  for (const int nodes : kLadder) {
    const std::string n = ".n" + std::to_string(nodes);
    all.push_back({"node.network_run_ms" + n, 0, "ms"});
    all.push_back({"sim.events_per_packet" + n, 0, "count"});
    all.push_back({"sim.ns_per_event" + n, 0, "ns"});
    all.push_back({"mac.cca_busy_per_frame" + n, 0, "count"});
    all.push_back({"channel.collision_ratio" + n, 0, "ratio"});
    all.push_back({"link.queue_drop_ratio" + n, 0, "ratio"});
    all.push_back({"app.delivery_ratio" + n, 0, "ratio"});
  }
  const std::vector<Metric> rest = {
      {"serve.parse_us", 0, "us"},
      {"serve.key_us", 0, "us"},
      {"serve.lookup_us", 0, "us"},
      {"serve.answer_hit_us", 0, "us"},
      {"serve.transport_us", 0, "us"},
      {"serve.answer_whatif_us", 0, "us"},
      {"serve.answer_lpl_us", 0, "us"},
      {"serve.answer_optimize_us", 0, "us"},
      {"serve.persist_ms", 0, "ms"},
      {"serve.persist_mb", 0, "MB"},
      {"serve.warm_load_ms", 0, "ms"},
      {"serve.hit_ratio", 0, "ratio"},
      {"serve.hit_p50_us", 0, "us"},
      {"serve.hit_p99_us", 0, "us"},
      {"serve.miss_p50_us", 0, "us"},
      {"serve.miss_p90_us", 0, "us"},
      {"trace.span_coverage", 0, "ratio"},
      {"trace.overhead_s", 0, "s"},
  };
  all.insert(all.end(), rest.begin(), rest.end());
  return all;
}

}  // namespace

double Seconds(std::uint64_t ns) { return static_cast<double>(ns) * 1e-9; }

int Passes(const RunSpec& spec, double pass_seconds, int minimum) {
  const auto passes = static_cast<int>(spec.seconds / pass_seconds + 0.5);
  return std::max(minimum, passes);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t CounterValue(const std::vector<wsnlink::trace::CounterSample>& c,
                           std::string_view name) {
  for (const auto& sample : c) {
    if (sample.name == name) return sample.value;
  }
  return 0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double Overhead(std::uint64_t traced_ns, std::uint64_t before_ns,
                std::uint64_t after_ns) {
  return Seconds(traced_ns) - 0.5 * (Seconds(before_ns) + Seconds(after_ns));
}

void AddItemLatency(Result& result, const std::vector<double>& latencies_us,
                    const std::string& item) {
  const double tail_p = TailPercentile(latencies_us.size());
  const Quantile p50 = Percentile(latencies_us, 0.5);
  const Quantile tail = Percentile(latencies_us, tail_p);
  result.Add("item_p50_us", p50.value, "us");
  result.Add("item_tail_us", tail.value, "us");
  result.notes.push_back("item: " + item + "; item_p50_us over " +
                         std::to_string(p50.samples) +
                         " samples; item_tail_us is p" +
                         std::to_string(static_cast<int>(tail_p * 100)) +
                         " over " + std::to_string(tail.samples) + " samples");
}

void WriteSpans(const RunSpec& spec, const SpanRecorder& recorder,
                const std::vector<std::uint64_t>& self) {
  if (!spec.span_path.empty()) {
    WriteSpansCsv(spec.span_path, recorder.Spans(), self);
  }
}

double MeanSelf(const std::vector<Span>& spans,
                const std::vector<std::uint64_t>& self, std::string_view name,
                double unit_ns) {
  const SpanStats s = StatsFor(spans, self, name);
  return s.count == 0 ? 0.0
                      : static_cast<double>(s.self_ns) /
                            static_cast<double>(s.count) / unit_ns;
}

void AddThroughput(Result& result, const std::vector<double>& pass_rates) {
  std::string line = "pass_rates";
  for (const double rate : pass_rates) {
    line += ' ';
    line += std::to_string(static_cast<long>(rate));
  }
  result.notes.push_back(line);
  result.Add("items_per_s", Median(pass_rates), "1/s");
}

void CheckDigest(Result& r, const RunSpec& spec, const std::string& what,
                 const std::string& bytes, std::uint64_t expected) {
  const std::uint64_t digest = wsnlink::experiment::CheckpointChecksum(bytes);
  r.notes.push_back("output_digest " + what + " " + Hex(digest));
  if (spec.seed == kDefaultSeed) {
    r.Check(digest == expected, what + ": digest " + Hex(digest) +
                                    " differs from the recorded " +
                                    Hex(expected));
  }
}

bool IsWorkload(const std::string& name) {
  return name == "campaign" || name == "contention" || name == "serve";
}

void Prepare(const RunSpec& spec) {
  if (spec.workload == "serve") PrepareServe(spec);
}

double TimeSetUp(const RunSpec& spec) {
  if (spec.workload == "campaign") return TimeCampaignSetUp(spec);
  if (spec.workload == "contention") return TimeContentionSetUp(spec);
  return TimeServeSetUp(spec);
}

Result Measure(const RunSpec& spec) {
  if (spec.workload == "campaign") return MeasureCampaign(spec);
  if (spec.workload == "contention") return MeasureContention(spec);
  return MeasureServe(spec);
}

Result Trace(const RunSpec& spec) {
  Result r = spec.workload == "campaign"     ? TraceCampaign(spec)
             : spec.workload == "contention" ? TraceContention(spec)
                                             : TraceServe(spec);
  // Every traced run reports the whole catalogue; the metrics of layers its
  // workload does not exercise read 0.
  std::vector<Metric> all = PerLayerCatalogue();
  for (const Metric& m : r.metrics) {
    const auto it = std::find_if(all.begin(), all.end(), [&](const Metric& c) {
      return c.name == m.name;
    });
    if (it == all.end() || it->unit != m.unit) {
      throw std::logic_error("per-layer metric " + m.name +
                             " is missing from the catalogue");
    }
    it->value = m.value;
  }
  r.metrics = std::move(all);
  return r;
}

}  // namespace perfbench
