// Helpers shared by the three workload files and their entry points.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "bench_core.h"
#include "trace/counters.h"
#include "workloads.h"

namespace perfbench {

/// The seed whose outputs have digests recorded in the workload files.
inline constexpr std::uint64_t kDefaultSeed = 1;

[[nodiscard]] double Seconds(std::uint64_t ns);

/// Passes of fixed work for this run: --seconds over a nominal pass length
/// (never a function of measured speed), at least `minimum`.
[[nodiscard]] int Passes(const RunSpec& spec, double pass_seconds,
                         int minimum);

[[nodiscard]] std::string ReadFile(const std::string& path);

[[nodiscard]] double PeakRssMb();

[[nodiscard]] std::uint64_t CounterValue(
    const std::vector<wsnlink::trace::CounterSample>& counters,
    std::string_view name);

/// num / den, or 0 when den is 0.
[[nodiscard]] double Ratio(double num, double den);

/// Tracing overhead: traced wall time minus the mean of the untraced runs
/// made just before and just after it.
[[nodiscard]] double Overhead(std::uint64_t traced_ns, std::uint64_t before_ns,
                              std::uint64_t after_ns);

/// Adds items_per_s (the median pass rate) and a note listing every pass.
void AddThroughput(Result& result, const std::vector<double>& pass_rates);

/// Adds the end-to-end latency pair for a workload's items.
void AddItemLatency(Result& result, const std::vector<double>& latencies_us,
                    const std::string& item);

void WriteSpans(const RunSpec& spec, const SpanRecorder& recorder,
                const std::vector<std::uint64_t>& self);

/// Per-span mean self time of `name` in `unit_ns` units (0 when absent).
[[nodiscard]] double MeanSelf(const std::vector<Span>& spans,
                              const std::vector<std::uint64_t>& self,
                              std::string_view name, double unit_ns);

/// Notes the FNV-1a digest of `bytes`; for kDefaultSeed it must equal
/// `expected`.
void CheckDigest(Result& r, const RunSpec& spec, const std::string& what,
                 const std::string& bytes, std::uint64_t expected);

// Entry points of each workload (campaign.cpp, contention.cpp, serve.cpp).
[[nodiscard]] double TimeCampaignSetUp(const RunSpec& spec);
[[nodiscard]] Result MeasureCampaign(const RunSpec& spec);
[[nodiscard]] Result TraceCampaign(const RunSpec& spec);

[[nodiscard]] double TimeContentionSetUp(const RunSpec& spec);
[[nodiscard]] Result MeasureContention(const RunSpec& spec);
[[nodiscard]] Result TraceContention(const RunSpec& spec);

void PrepareServe(const RunSpec& spec);
[[nodiscard]] double TimeServeSetUp(const RunSpec& spec);
[[nodiscard]] Result MeasureServe(const RunSpec& spec);
[[nodiscard]] Result TraceServe(const RunSpec& spec);

}  // namespace perfbench
