#include "bench_core.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/rng.h"

namespace perfbench {

namespace {

/// Independent 64-bit stream `stream` of `seed` (SplitMix64 of a mix).
std::uint64_t Derive(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t state = seed ^ (0xD1B54A32D192ED03ULL * (stream + 1));
  return wsnlink::util::SplitMix64(state);
}

template <typename T>
void Rotate(std::vector<T>& values, std::uint64_t amount) {
  std::rotate(values.begin(),
              values.begin() + static_cast<std::ptrdiff_t>(amount % values.size()),
              values.end());
}

}  // namespace

wsnlink::experiment::CampaignOptions MakeCampaignOptions(std::uint64_t seed) {
  wsnlink::experiment::CampaignOptions options;
  // Distance and PA level are the two slowest digits of the Table I index,
  // and both place values are multiples of the stride, so rotating their
  // value lists reorders the strided subsample without changing which
  // configurations it holds: every seed sweeps the same work.
  Rotate(options.space.distances_m, Derive(seed, 1));
  Rotate(options.space.pa_levels, Derive(seed, 2));
  options.packet_count = kCampaignPackets;
  options.stride = kCampaignStride;
  options.base_seed = Derive(seed, 8);
  options.threads = 1;
  options.checkpoint_every = kCampaignCheckpointEvery;
  return options;
}

std::vector<wsnlink::core::StackConfig> CampaignConfigs(
    const wsnlink::experiment::CampaignOptions& options) {
  std::vector<wsnlink::core::StackConfig> configs;
  const std::size_t size = options.space.Size();
  configs.reserve(size / options.stride + 1);
  for (std::size_t i = 0; i < size; i += options.stride) {
    configs.push_back(options.space.At(i));
  }
  return configs;
}

std::vector<ContentionRun> MakeContentionRuns(std::uint64_t seed) {
  std::vector<ContentionRun> runs;
  for (const int nodes : kLadder) {
    const int replicas = kLadderTop / nodes;
    for (int r = 0; r < replicas; ++r) {
      ContentionRun run;
      run.nodes = nodes;
      auto& o = run.options;
      o.config.distance_m = 20.0;
      o.config.pkt_interval_ms = 25.0;
      o.node_counts = {nodes};
      o.base_seed = Derive(seed, static_cast<std::uint64_t>(nodes) * 4096 +
                                     static_cast<std::uint64_t>(r));
      o.packet_count = kContentionPackets;
      o.mac = wsnlink::node::MacKind::kCsma;
      o.shared_medium = true;
      o.disable_interference = true;
      o.threads = 1;
      o.sim_threads = 1;
      runs.push_back(std::move(run));
    }
  }
  return runs;
}

ServeInputs MakeServeInputs(std::uint64_t seed) {
  static constexpr int kPa[] = {3, 7, 11, 15, 19, 23, 27, 31};
  static constexpr int kTries[] = {1, 2, 3, 5, 8};
  static constexpr int kPayload[] = {10, 30, 50, 70, 90, 114};
  static constexpr int kQueue[] = {1, 10, 30};
  static constexpr const char* kObjective[] = {"energy", "goodput", "delay",
                                               "loss"};
  // Warm keys use request seeds [base, base + 64); miss keys use seeds from
  // base + 64 upwards, so a miss can never collide with a warm key.
  const std::uint64_t base = Derive(seed, 10) % 1'000'000'000ULL;

  const auto what_if = [&](std::size_t k, std::uint64_t request_seed,
                           bool lpl) {
    std::string line = "{\"verb\":\"what_if\",\"distance_m\":";
    line += std::to_string(10 + static_cast<int>(k % 6) * 5);
    line += ",\"pa_level\":" + std::to_string(kPa[(k / 6) % 8]);
    line += ",\"max_tries\":" + std::to_string(kTries[(k / 48) % 5]);
    line += ",\"queue_capacity\":" + std::to_string(kQueue[(k / 240) % 3]);
    line += ",\"pkt_interval_ms\":100,\"payload_bytes\":";
    line += std::to_string(kPayload[(k / 720) % 6]);
    if (lpl) line += ",\"mac\":\"lpl\",\"lpl_wakeup_ms\":100";
    line += ",\"packets\":120,\"seed\":" + std::to_string(request_seed) + "}";
    return line;
  };

  ServeInputs inputs;
  inputs.warm_lines.reserve(kServeWarmEntries);
  const std::uint64_t offset = Derive(seed, 11);
  for (std::size_t k = 0; k < kServeWarmEntries; ++k) {
    const std::size_t cell = (k + offset) % 4320;
    inputs.warm_lines.push_back(what_if(cell, base + k / 4320, false));
  }

  wsnlink::util::Rng rng(Derive(seed, 12));
  const std::size_t miss_phase = Derive(seed, 13) % kServeMissEvery;
  std::size_t misses = 0;
  inputs.requests.reserve(kServeRequests);
  for (std::size_t i = 0; i < kServeRequests; ++i) {
    ServeRequest request;
    if (i % kServeMissEvery != miss_phase) {
      request.kind = ServeRequest::Kind::kHit;
      request.line =
          inputs.warm_lines[rng.UniformInt(0, kServeWarmEntries - 1)];
    } else {
      const std::size_t m = misses++;
      const std::uint64_t miss_seed = base + 64 + m;
      switch (m % 3) {
        case 0:
          request.kind = ServeRequest::Kind::kWhatIf;
          request.line = what_if(rng.UniformInt(0, 4319), miss_seed, false);
          break;
        case 1:
          request.kind = ServeRequest::Kind::kLpl;
          request.line = what_if(rng.UniformInt(0, 4319), miss_seed, true);
          break;
        default: {
          request.kind = ServeRequest::Kind::kOptimize;
          char buf[200];
          std::snprintf(buf, sizeof(buf),
                        "{\"verb\":\"optimize\",\"objective\":\"%s\","
                        "\"distance_m\":%llu.%03llu,\"pkt_interval_ms\":100}",
                        kObjective[m % 4],
                        static_cast<unsigned long long>(10 + m % 25),
                        static_cast<unsigned long long>(miss_seed % 1000));
          request.line = buf;
          break;
        }
      }
    }
    inputs.requests.push_back(std::move(request));
  }
  return inputs;
}

Quantile Percentile(std::vector<double> values, double p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::invalid_argument("Percentile: p must lie in (0, 1)");
  }
  const auto n = values.size();
  // Samples strictly above the nearest-rank position.
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(n) - 1e-9));
  const std::size_t beyond = n - std::min(rank, n);
  if (n == 0 || rank == 0 || beyond < 10) {
    throw std::invalid_argument(
        "Percentile: p" + std::to_string(p * 100.0) + " over " +
        std::to_string(n) + " samples has " + std::to_string(beyond) +
        " beyond it; at least 10 are required");
  }
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return {values[rank - 1], n};
}

double TailPercentile(std::size_t count) {
  if (count >= 1000) return 0.99;
  if (count >= 100) return 0.90;
  return 0.5;
}

double Median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("Median: no values");
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

SpanRecorder::SpanRecorder(bool enabled, std::size_t reserve)
    : enabled_(enabled) {
  if (enabled_) {
    spans_.reserve(reserve);
    open_.reserve(16);
  }
}

int SpanRecorder::Begin(std::string_view name, std::uint64_t request) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.request = request;
  const int index = static_cast<int>(spans_.size());
  open_.push_back(index);
  span.start_ns = NowNs();
  spans_.push_back(span);
  return index;
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = NowNs();
  if (open_.empty() || open_.back() != index) {
    throw std::logic_error("SpanRecorder: spans must close innermost first");
  }
  open_.pop_back();
}

std::vector<std::uint64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                 s.end_ns);
    }
  }
  std::vector<std::uint64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::uint64_t covered = 0;
    std::uint64_t cursor = s.start_ns;
    for (auto [begin, end] : kids) {
      begin = std::max(begin, cursor);
      end = std::min(end, s.end_ns);
      if (end > begin) {
        covered += end - begin;
        cursor = end;
      }
    }
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

SpanStats StatsFor(const std::vector<Span>& spans,
                   const std::vector<std::uint64_t>& self_ns,
                   std::string_view name) {
  SpanStats stats;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].name != name) continue;
    ++stats.count;
    stats.total_ns += spans[i].end_ns - spans[i].start_ns;
    stats.self_ns += self_ns[i];
  }
  return stats;
}

std::uint64_t LayerCoverageNs(const std::vector<Span>& spans) {
  const auto is_bench = [](const Span& s) { return s.name.starts_with("bench."); };
  std::uint64_t total = 0;
  for (const Span& s : spans) {
    if (is_bench(s)) continue;
    if (s.parent < 0 || is_bench(spans[static_cast<std::size_t>(s.parent)])) {
      total += s.end_ns - s.start_ns;
    }
  }
  return total;
}

void WriteSpansCsv(const std::string& path, const std::vector<Span>& spans,
                   const std::vector<std::uint64_t>& self_ns) {
  std::ofstream out(path, std::ios::trunc);
  out << "index,name,start_ns,end_ns,parent,request,self_ns\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << i << ',' << s.name << ',' << s.start_ns << ',' << s.end_ns << ','
        << s.parent << ',' << s.request << ',' << self_ns[i] << '\n';
  }
  if (!out) throw std::runtime_error("cannot write span log " + path);
}

}  // namespace perfbench
