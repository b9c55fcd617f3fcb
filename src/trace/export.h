// Trace exporters: Chrome trace_event JSON and flat CSV.
//
// The JSON form loads directly in chrome://tracing or https://ui.perfetto.dev
// — one row (tid) per stack layer, instant events for point occurrences,
// async begin/end spans for each packet's service interval, and counter
// totals as trace_event counter samples. The CSV form is the same stream as
// a flat table for offline analysis (pandas, gnuplot).
#pragma once

#include <string>
#include <vector>

#include "trace/counters.h"
#include "trace/trace.h"

namespace wsnlink::trace {

/// Renders the event stream as a Chrome trace_event JSON document
/// (https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU).
/// `counters` (optional) is appended as counter samples at the last event
/// timestamp.
[[nodiscard]] std::string ChromeTraceJson(
    const std::vector<TraceEvent>& events,
    const std::vector<CounterSample>& counters = {});

/// Writes ChromeTraceJson to `path`. Throws std::runtime_error on I/O
/// failure.
void WriteChromeTraceJson(const std::string& path,
                          const std::vector<TraceEvent>& events,
                          const std::vector<CounterSample>& counters = {});

/// Renders the event stream as CSV (header + one row per event).
[[nodiscard]] std::string TraceCsv(const std::vector<TraceEvent>& events);

/// Writes TraceCsv to `path`. Throws std::runtime_error on I/O failure.
void WriteTraceCsv(const std::string& path,
                   const std::vector<TraceEvent>& events);

}  // namespace wsnlink::trace
