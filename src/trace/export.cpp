#include "trace/export.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace wsnlink::trace {

namespace {

/// Formats a double compactly and locale-independently ("%.9g": enough to
/// round-trip the RSSI/SNR readings the events carry).
std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

std::string FormatInt(std::int64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  return buf;
}

std::string FormatUint(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
  return buf;
}

/// The common "pid":<node+1>,"tid":<layer> tail shared by every trace
/// record. Each node renders as its own process so chrome://tracing groups
/// the per-node layer rows; node 0 keeps the historical pid 1.
void AppendPidTid(std::string& out, Layer layer, std::int32_t node = 0) {
  out += "\"pid\":";
  out += FormatInt(static_cast<std::int64_t>(node) + 1);
  out += ",\"tid\":";
  out += FormatInt(static_cast<std::int64_t>(layer));
}

void AppendEventArgs(std::string& out, const TraceEvent& e) {
  out += "\"args\":{\"packet\":";
  out += FormatUint(e.packet_id);
  out += ",\"arg0\":";
  out += FormatInt(e.arg0);
  out += ",\"arg1\":";
  out += FormatInt(e.arg1);
  out += ",\"value\":";
  out += FormatDouble(e.value);
  out += "}";
}

void WriteFileOrThrow(const std::string& path, const std::string& contents,
                      const char* what) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error(std::string(what) + ": cannot open " + path);
  }
  out << contents;
  if (!out) {
    throw std::runtime_error(std::string(what) + ": write failed for " + path);
  }
}

}  // namespace

std::string ChromeTraceJson(const std::vector<TraceEvent>& events,
                            const std::vector<CounterSample>& counters) {
  std::string out;
  out.reserve(events.size() * 120 + 1024);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";

  // Metadata: one process row per node present in the stream (node 0 is
  // always named so empty traces keep the historical preamble), one thread
  // row per layer under node 0.
  std::int32_t max_node = 0;
  for (const TraceEvent& e : events) {
    if (e.node > max_node) max_node = e.node;
  }
  out +=
      "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
      "\"args\":{\"name\":\"wsnlink\"}}";
  for (std::int32_t node = 1; node <= max_node; ++node) {
    out += ",\n{\"ph\":\"M\",\"pid\":";
    out += FormatInt(static_cast<std::int64_t>(node) + 1);
    out += ",\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"node-";
    out += FormatInt(node);
    out += "\"}}";
  }
  for (const Layer layer : {Layer::kSim, Layer::kPhy, Layer::kMac, Layer::kLink,
                            Layer::kApp}) {
    out += ",\n{\"ph\":\"M\",";
    AppendPidTid(out, layer);
    out += ",\"name\":\"thread_name\",\"args\":{\"name\":\"";
    out += LayerName(layer);
    out += "\"}}";
  }

  sim::Time last_ts = 0;
  for (const TraceEvent& e : events) {
    if (e.at > last_ts) last_ts = e.at;
    // Service intervals render as per-packet async spans so chrome://tracing
    // shows one lane per in-flight packet; everything else is an instant.
    if (e.type == EventType::kServiceStart ||
        e.type == EventType::kPacketCompleted) {
      const bool begin = e.type == EventType::kServiceStart;
      out += ",\n{\"ph\":\"";
      out += begin ? 'b' : 'e';
      out += "\",\"cat\":\"packet\",\"id\":";
      out += FormatUint(e.packet_id);
      out += ",\"name\":\"service\",\"ts\":";
      out += FormatInt(e.at);
      out += ",";
      AppendPidTid(out, e.layer, e.node);
      out += ",";
      AppendEventArgs(out, e);
      out += "}";
      continue;
    }
    out += ",\n{\"ph\":\"i\",\"s\":\"t\",\"name\":\"";
    out += EventTypeName(e.type);
    out += "\",\"ts\":";
    out += FormatInt(e.at);
    out += ",";
    AppendPidTid(out, e.layer, e.node);
    out += ",";
    AppendEventArgs(out, e);
    out += "}";
  }

  // Final counter values as trace_event counter samples at the last
  // timestamp (one sample per counter: the registry keeps totals, not a
  // time series).
  for (const CounterSample& c : counters) {
    out += ",\n{\"ph\":\"C\",\"pid\":1,\"name\":\"";
    out += c.name;
    out += "\",\"ts\":";
    out += FormatInt(last_ts);
    out += ",\"args\":{\"value\":";
    out += FormatUint(c.value);
    out += "}}";
  }

  out += "\n]}\n";
  return out;
}

void WriteChromeTraceJson(const std::string& path,
                          const std::vector<TraceEvent>& events,
                          const std::vector<CounterSample>& counters) {
  WriteFileOrThrow(path, ChromeTraceJson(events, counters),
                   "WriteChromeTraceJson");
}

std::string TraceCsv(const std::vector<TraceEvent>& events) {
  std::string out = "t_us,layer,event,packet_id,arg0,arg1,value,node\n";
  out.reserve(out.size() + events.size() * 64);
  for (const TraceEvent& e : events) {
    out += FormatInt(e.at);
    out += ',';
    out += LayerName(e.layer);
    out += ',';
    out += EventTypeName(e.type);
    out += ',';
    out += FormatUint(e.packet_id);
    out += ',';
    out += FormatInt(e.arg0);
    out += ',';
    out += FormatInt(e.arg1);
    out += ',';
    out += FormatDouble(e.value);
    out += ',';
    out += FormatInt(e.node);
    out += '\n';
  }
  return out;
}

void WriteTraceCsv(const std::string& path,
                   const std::vector<TraceEvent>& events) {
  WriteFileOrThrow(path, TraceCsv(events), "WriteTraceCsv");
}

}  // namespace wsnlink::trace
