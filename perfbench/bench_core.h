// Building blocks of the wsnlink end-to-end benchmark: seeded input
// generators for the three workloads, the percentile helper, and the span
// recorder with its self-time arithmetic. Kept free of timing policy and
// I/O so the self-test can drive every piece directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/stack_config.h"
#include "experiment/campaign.h"
#include "experiment/contention.h"

namespace perfbench {

// ---------------------------------------------------------------------------
// Seeded inputs. Each workload is a fixed amount of work that depends only on
// the seed; the program under test only ever sees these generated inputs.

/// Table I subsample stride (48384 / 8 = 6048 configs per campaign pass).
inline constexpr std::size_t kCampaignStride = 8;
/// run_campaign's default packets per configuration.
inline constexpr int kCampaignPackets = 200;
/// run_campaign's default checkpoint cadence.
inline constexpr std::size_t kCampaignCheckpointEvery = 64;

/// Campaign options for `seed`: the Table I subsample in a seed-derived
/// order with a seed-derived base seed, one compute thread.
[[nodiscard]] wsnlink::experiment::CampaignOptions MakeCampaignOptions(
    std::uint64_t seed);

/// The configurations RunCampaign sweeps for `options`, in sweep order.
[[nodiscard]] std::vector<wsnlink::core::StackConfig> CampaignConfigs(
    const wsnlink::experiment::CampaignOptions& options);

/// One network run of the contention ladder: RunContentionSweep options with
/// a single-entry node-count list.
struct ContentionRun {
  int nodes = 0;
  wsnlink::experiment::ContentionOptions options;
};

/// The contention node ladder; rung N is replicated kLadderTop / N times
/// over distinct base seeds so every rung simulates the same node-packets.
inline constexpr int kLadder[] = {8, 32, 128, 512};
inline constexpr int kLadderTop = 512;
/// Packets per node in every contention run (25 ms periodic arrivals).
inline constexpr int kContentionPackets = 400;

/// Every network run of one contention pass for `seed`, smallest rung
/// first: CSMA, shared medium, interference off, one thread, sequential
/// kernel.
[[nodiscard]] std::vector<ContentionRun> MakeContentionRuns(std::uint64_t seed);

/// A serve request with its cache class, as the generator knows it.
struct ServeRequest {
  enum class Kind { kHit, kWhatIf, kLpl, kOptimize };
  Kind kind = Kind::kHit;
  std::string line;
};

/// The serve workload for `seed`.
struct ServeInputs {
  /// Request lines whose answers the warm cache holds (distinct keys).
  std::vector<std::string> warm_lines;
  /// The closed-loop request stream: repeats of warm lines plus unique new
  /// keys (misses), in send order.
  std::vector<ServeRequest> requests;
};

inline constexpr std::size_t kServeWarmEntries = 2000;
inline constexpr std::size_t kServeRequests = 4000;
/// Every kServeMissEvery-th request (offset by the seed) is a new key.
inline constexpr std::size_t kServeMissEvery = 32;

[[nodiscard]] ServeInputs MakeServeInputs(std::uint64_t seed);

// ---------------------------------------------------------------------------
// Percentiles.

/// A percentile together with the sample count it was taken over.
struct Quantile {
  double value = 0.0;
  std::size_t samples = 0;
};

/// Nearest-rank percentile `p` (0 < p < 1) of `values`. Refuses (throws
/// std::invalid_argument) when fewer than ten samples lie beyond it, since
/// such a tail is one or two outliers rather than a percentile.
[[nodiscard]] Quantile Percentile(std::vector<double> values, double p);

/// The highest of p99 and p90 that `count` samples support, or 0.5 when
/// neither does.
[[nodiscard]] double TailPercentile(std::size_t count);

[[nodiscard]] double Median(std::vector<double> values);

// ---------------------------------------------------------------------------
// Spans.

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::uint64_t NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

/// One timed call into a layer. `parent` is the index of the enclosing span
/// (-1 for a root); `request` groups the spans of one serve request (0
/// elsewhere).
struct Span {
  std::string_view name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
  std::uint64_t request = 0;
};

/// In-memory span log with an open-span stack. Disabled recorders cost one
/// branch per Begin/End, which is how the untraced replay runs the same
/// code as the traced one.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled, std::size_t reserve = 0);

  /// Opens a span under the innermost open span; returns its index (or -1
  /// when disabled). `name` must outlive the recorder.
  int Begin(std::string_view name, std::uint64_t request = 0);
  void End(int index);

  [[nodiscard]] const std::vector<Span>& Spans() const noexcept {
    return spans_;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(SpanRecorder& recorder, std::string_view name,
         std::uint64_t request = 0)
      : recorder_(recorder), index_(recorder.Begin(name, request)) {}
  ~Scoped() { recorder_.End(index_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanRecorder& recorder_;
  int index_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (overlapping children are counted once).
[[nodiscard]] std::vector<std::uint64_t> SelfTimesNs(
    const std::vector<Span>& spans);

/// Per-name totals over a span log.
struct SpanStats {
  std::size_t count = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

/// Totals for every span named `name`.
[[nodiscard]] SpanStats StatsFor(const std::vector<Span>& spans,
                                 const std::vector<std::uint64_t>& self_ns,
                                 std::string_view name);

/// Summed duration of the outermost layer spans: spans not named "bench.*"
/// whose parent is a root or a "bench.*" span. The benchmark's own per-item
/// wrapper spans are named "bench.*", so this is the traced time the layer
/// calls account for.
[[nodiscard]] std::uint64_t LayerCoverageNs(const std::vector<Span>& spans);

/// Writes the log as CSV (index,name,start_ns,end_ns,parent,request,self_ns).
void WriteSpansCsv(const std::string& path, const std::vector<Span>& spans,
                   const std::vector<std::uint64_t>& self_ns);

}  // namespace perfbench
