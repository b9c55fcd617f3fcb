// Self-test of the benchmark's own logic: seeded inputs, the percentile
// helper and span self time. Run with `ctest --test-dir .bench_build` after
// building the benchmark, or directly as .bench_build/perfbench_selftest.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_core.h"

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  }
}

bool Refuses(const std::vector<double>& values, double p) {
  try {
    (void)perfbench::Percentile(values, p);
    return false;
  } catch (const std::invalid_argument&) {
    return true;
  }
}

std::vector<std::string> ContentionSeeds(std::uint64_t seed) {
  std::vector<std::string> out;
  for (const auto& run : perfbench::MakeContentionRuns(seed)) {
    out.push_back(std::to_string(run.nodes) + ":" +
                  std::to_string(run.options.base_seed));
  }
  return out;
}

std::vector<std::string> CampaignInputs(std::uint64_t seed) {
  const auto options = perfbench::MakeCampaignOptions(seed);
  std::vector<std::string> out{std::to_string(options.base_seed)};
  for (const auto& c : perfbench::CampaignConfigs(options)) {
    out.push_back(std::to_string(c.distance_m) + "," +
                  std::to_string(c.pa_level) + "," +
                  std::to_string(c.max_tries) + "," +
                  std::to_string(c.retry_delay_ms) + "," +
                  std::to_string(c.queue_capacity) + "," +
                  std::to_string(c.pkt_interval_ms) + "," +
                  std::to_string(c.payload_bytes));
  }
  return out;
}

std::vector<std::string> ServeLines(std::uint64_t seed) {
  const auto inputs = perfbench::MakeServeInputs(seed);
  std::vector<std::string> out = inputs.warm_lines;
  for (const auto& q : inputs.requests) {
    out.push_back(std::to_string(static_cast<int>(q.kind)) + q.line);
  }
  return out;
}

void TestSeededInputs() {
  Expect(CampaignInputs(7) == CampaignInputs(7), "campaign: same seed differs");
  Expect(CampaignInputs(7) != CampaignInputs(8),
         "campaign: different seeds agree");
  {
    // Seeds reorder the subsample; they never change which configs it holds.
    auto a = CampaignInputs(7);
    auto b = CampaignInputs(8);
    Expect(a.size() == 48384 / perfbench::kCampaignStride + 1,
           "campaign: subsample size");
    std::sort(a.begin() + 1, a.end());
    std::sort(b.begin() + 1, b.end());
    Expect(std::equal(a.begin() + 1, a.end(), b.begin() + 1),
           "campaign: seeds change the subsample's configurations");
  }
  Expect(ContentionSeeds(7) == ContentionSeeds(7),
         "contention: same seed differs");
  Expect(ContentionSeeds(7) != ContentionSeeds(8),
         "contention: different seeds agree");
  Expect(ServeLines(7) == ServeLines(7), "serve: same seed differs");
  Expect(ServeLines(7) != ServeLines(8), "serve: different seeds agree");

  // Every ladder rung simulates the same node-packets.
  std::vector<int> per_rung(4, 0);
  for (const auto& run : perfbench::MakeContentionRuns(3)) {
    for (int r = 0; r < 4; ++r) {
      if (perfbench::kLadder[r] == run.nodes) per_rung[r] += run.nodes;
    }
  }
  Expect(per_rung == std::vector<int>(4, perfbench::kLadderTop),
         "contention: rungs are not equal-work");

  // Misses are unique new keys; hits repeat warm keys.
  const auto inputs = perfbench::MakeServeInputs(5);
  std::vector<std::string> misses;
  bool hits_warm = true;
  for (const auto& q : inputs.requests) {
    if (q.kind == perfbench::ServeRequest::Kind::kHit) {
      bool found = false;
      for (const auto& w : inputs.warm_lines) found = found || w == q.line;
      hits_warm = hits_warm && found;
    } else {
      for (const auto& w : inputs.warm_lines) {
        Expect(w != q.line, "serve: a miss repeats a warm key");
      }
      for (const auto& m : misses) {
        Expect(m != q.line, "serve: a miss key repeats");
      }
      misses.push_back(q.line);
    }
  }
  Expect(hits_warm, "serve: a hit is not a warm key");
  Expect(misses.size() * perfbench::kServeMissEvery ==
             perfbench::kServeRequests,
         "serve: miss share");
}

void TestPercentile() {
  std::vector<double> values;
  for (int i = 1; i <= 1000; ++i) values.push_back(1001 - i);
  const auto p99 = perfbench::Percentile(values, 0.99);
  Expect(p99.value == 990.0, "p99 of 1..1000 is 990");
  Expect(p99.samples == 1000, "p99 states its sample count");
  Expect(perfbench::Percentile(values, 0.5).value == 500.0, "p50 of 1..1000");
  values.pop_back();
  Expect(Refuses(values, 0.99), "p99 of 999 samples has 9 beyond: refused");
  values.resize(100);
  Expect(!Refuses(values, 0.90), "p90 of 100 samples has 10 beyond");
  values.resize(99);
  Expect(Refuses(values, 0.90), "p90 of 99 samples: refused");
  Expect(Refuses({}, 0.5), "empty sample set: refused");
  Expect(perfbench::TailPercentile(1000) == 0.99, "tail of 1000 is p99");
  Expect(perfbench::TailPercentile(999) == 0.90, "tail of 999 is p90");
  Expect(perfbench::Median({3, 1, 2, 10}) == 2.5, "median of an even set");
}

void TestSelfTime() {
  using perfbench::Span;
  // root [0,100]
  //   a [10,40]       (self 40-10 - 5 = 25)
  //     a1 [15,20]    (self 5)
  //   b [30,60]       (overlaps a: the root's coverage is [10,60])
  //   c [90,120]      (runs past its parent: clipped to [90,100])
  const std::vector<Span> spans = {
      {"root", 0, 100, -1, 0}, {"a", 10, 40, 0, 0}, {"a1", 15, 20, 1, 0},
      {"b", 30, 60, 0, 0},     {"c", 90, 120, 0, 0},
  };
  const auto self = perfbench::SelfTimesNs(spans);
  Expect(self[0] == 100 - 50 - 10, "root self time");
  Expect(self[1] == 25, "a self time");
  Expect(self[2] == 5, "leaf self time is its duration");
  Expect(self[3] == 30, "b self time");
  Expect(self[4] == 30, "c self time");
  // Layer coverage: outermost non-bench spans only.
  const std::vector<Span> loop = {
      {"bench.loop", 0, 100, -1, 0}, {"x", 10, 30, 0, 0}, {"z", 45, 50, 3, 0},
      {"y", 40, 70, 0, 0},           {"w", 100, 110, -1, 0},
  };
  Expect(perfbench::LayerCoverageNs(loop) == 20 + 30 + 10,
         "layer coverage counts outermost layer spans only");
  const auto stats = perfbench::StatsFor(spans, self, "a");
  Expect(stats.count == 1 && stats.total_ns == 30 && stats.self_ns == 25,
         "per-name totals");

  perfbench::SpanRecorder rec(true);
  const int outer = rec.Begin("outer", 7);
  const int inner = rec.Begin("inner", 7);
  rec.End(inner);
  rec.End(outer);
  Expect(rec.Spans()[1].parent == outer && rec.Spans()[0].parent == -1,
         "recorder links parents");
  perfbench::SpanRecorder off(false);
  Expect(off.Begin("x") == -1 && off.Spans().empty(),
         "disabled recorder records nothing");
}

}  // namespace

int main() {
  TestSeededInputs();
  TestPercentile();
  TestSelfTime();
  if (g_failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
