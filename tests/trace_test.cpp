// Observability-layer tests: tracer/counter mechanics, exporter formats,
// and — most importantly — the lifecycle invariants of traced runs. These
// turn the stack's implicit contracts (paired service/completion events,
// attempt accounting, non-negative queues, monotonic time) into enforced
// regressions over the real simulator, not mocks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "link/packet_log.h"
#include "metrics/link_metrics.h"
#include "node/link_simulation.h"
#include "trace/counters.h"
#include "trace/export.h"
#include "trace/trace.h"

namespace wsnlink {
namespace {

using trace::EventType;
using trace::TraceEvent;

// ---------------------------------------------------------------------------
// Tracer / CounterRegistry mechanics

TEST(Trace, EmitAndReadBack) {
  trace::Tracer tracer(8);
  for (int i = 0; i < 5; ++i) {
    tracer.Emit({i * 10, EventType::kPacketGenerated, trace::Layer::kApp,
                 static_cast<std::uint64_t>(i), 0, 0, 0.0});
  }
  EXPECT_EQ(tracer.EmittedCount(), 5u);
  EXPECT_EQ(tracer.DroppedCount(), 0u);
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(events[i].at, i * 10);
    EXPECT_EQ(events[i].packet_id, static_cast<std::uint64_t>(i));
  }
}

TEST(Trace, RingOverwritesOldestWhenFull) {
  trace::Tracer tracer(4);
  for (int i = 0; i < 10; ++i) {
    tracer.Emit({i, EventType::kCcaBusy, trace::Layer::kMac,
                 static_cast<std::uint64_t>(i), 0, 0, 0.0});
  }
  EXPECT_EQ(tracer.EmittedCount(), 10u);
  EXPECT_EQ(tracer.DroppedCount(), 6u);
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 4u);
  // The four newest survive, still in chronological order.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(events[i].at, 6 + i);
}

TEST(Trace, EventsComeBackInTimeOrder) {
  // Emitters may run ahead of simulated time (the CSMA MAC emits a whole
  // attempt ladder when the packet is sent), so Events() sorts by time and
  // keeps emission order among equal times.
  trace::Tracer tracer(8);
  const sim::Time times[] = {30, 10, 20, 10, 30};
  for (std::uint64_t i = 0; i < 5; ++i) {
    tracer.Emit({times[i], EventType::kCcaBusy, trace::Layer::kMac, i, 0, 0,
                 0.0});
  }
  const auto events = tracer.Events();
  ASSERT_EQ(events.size(), 5u);
  const std::uint64_t expected_ids[] = {1, 3, 2, 0, 4};
  for (std::size_t k = 0; k < 5; ++k) {
    EXPECT_EQ(events[k].packet_id, expected_ids[k]) << "position " << k;
  }
}

TEST(Trace, ClearForgetsEvents) {
  trace::Tracer tracer(4);
  tracer.Emit({1, EventType::kCcaBusy, trace::Layer::kMac, 0, 0, 0, 0.0});
  tracer.Clear();
  EXPECT_EQ(tracer.EmittedCount(), 0u);
  EXPECT_TRUE(tracer.Events().empty());
}

TEST(Trace, RejectsZeroCapacity) {
  EXPECT_THROW(trace::Tracer(0), std::invalid_argument);
}

TEST(Trace, EventTypeNamesAreStable) {
  EXPECT_STREQ(trace::EventTypeName(EventType::kTxAttemptStart),
               "TxAttemptStart");
  EXPECT_STREQ(trace::EventTypeName(EventType::kQueueDrop), "QueueDrop");
  EXPECT_STREQ(trace::LayerName(trace::Layer::kMac), "mac");
}

TEST(Trace, CounterRegistryRegistersOnceAndSnapshotsSorted) {
  trace::CounterRegistry registry;
  const auto a = registry.Register("mac.tx_attempts");
  const auto b = registry.Register("app.packets_generated");
  EXPECT_EQ(registry.Register("mac.tx_attempts"), a);
  registry.Add(a, 3);
  registry.Add(b);
  EXPECT_EQ(registry.Value("mac.tx_attempts"), 3u);
  EXPECT_EQ(registry.Value("app.packets_generated"), 1u);
  EXPECT_EQ(registry.Value("no.such.counter"), 0u);

  const auto snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.size(), 2u);
  EXPECT_EQ(snapshot[0].name, "app.packets_generated");
  EXPECT_EQ(snapshot[1].name, "mac.tx_attempts");
  EXPECT_EQ(snapshot[1].value, 3u);
}

TEST(Trace, MergeCountersSumsByName) {
  const std::vector<std::vector<trace::CounterSample>> snapshots = {
      {{"a", 1}, {"b", 2}},
      {{"b", 3}, {"c", 4}},
  };
  const auto merged = trace::MergeCounters(snapshots);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0], (trace::CounterSample{"a", 1}));
  EXPECT_EQ(merged[1], (trace::CounterSample{"b", 5}));
  EXPECT_EQ(merged[2], (trace::CounterSample{"c", 4}));
}

// ---------------------------------------------------------------------------
// Traced-run lifecycle invariants

/// A loss-prone, overloaded configuration: retries, radio losses and queue
/// drops all occur, so every lifecycle path is exercised.
node::SimulationOptions GreyZoneOptions() {
  node::SimulationOptions options;
  options.config.distance_m = 35.0;
  options.config.pa_level = 11;
  options.config.max_tries = 3;
  options.config.retry_delay_ms = 5.0;
  options.config.queue_capacity = 3;
  options.config.pkt_interval_ms = 20.0;
  options.config.payload_bytes = 110;
  options.packet_count = 400;
  options.seed = 7;
  return options;
}

struct PacketEvents {
  std::vector<TraceEvent> events;  // in emission order
  int Count(EventType type) const {
    return static_cast<int>(
        std::count_if(events.begin(), events.end(),
                      [type](const TraceEvent& e) { return e.type == type; }));
  }
};

std::map<std::uint64_t, PacketEvents> GroupByPacket(
    const std::vector<TraceEvent>& events) {
  std::map<std::uint64_t, PacketEvents> by_packet;
  for (const auto& e : events) by_packet[e.packet_id].events.push_back(e);
  return by_packet;
}

TEST(TraceInvariants, LifecyclePairingAndAttemptAccounting) {
  auto options = GreyZoneOptions();
  trace::Tracer tracer;
  options.tracer = &tracer;
  const auto result = node::RunLinkSimulation(options);
  const auto events = tracer.Events();
  ASSERT_EQ(tracer.DroppedCount(), 0u) << "ring too small for this run";
  ASSERT_FALSE(events.empty());

  // Global timestamp monotonicity: simulated time never goes backwards in
  // the returned stream.
  for (std::size_t i = 1; i < events.size(); ++i) {
    ASSERT_GE(events[i].at, events[i - 1].at) << "event " << i;
  }

  const auto by_packet = GroupByPacket(events);

  // Attempt records per packet (sender's on-air attempts).
  std::map<std::uint64_t, int> attempts_logged;
  for (const auto& a : result.log.Attempts()) ++attempts_logged[a.packet_id];

  int service_starts = 0;
  int completions = 0;
  for (const auto& record : result.log.Packets()) {
    ASSERT_TRUE(by_packet.count(record.id)) << "packet " << record.id
                                            << " left no events";
    const auto& pe = by_packet.at(record.id);

    if (record.dropped_at_queue) {
      // Dropped packets never enter service: arrival + drop, nothing else.
      EXPECT_EQ(pe.Count(EventType::kQueueDrop), 1);
      EXPECT_EQ(pe.Count(EventType::kServiceStart), 0);
      EXPECT_EQ(pe.Count(EventType::kPacketCompleted), 0);
      EXPECT_EQ(pe.Count(EventType::kTxAttemptStart), 0);
      continue;
    }

    // Every ServiceStart has exactly one matching Completed, in order.
    EXPECT_EQ(pe.Count(EventType::kServiceStart), 1) << "packet " << record.id;
    EXPECT_EQ(pe.Count(EventType::kPacketCompleted), 1)
        << "packet " << record.id;
    ++service_starts;
    ++completions;

    // On-air attempts in the trace equal the attempt log; together with
    // CCA-exhausted attempts (CcaBusy with no backoffs left) they equal the
    // PacketRecord's tries.
    const int tx_starts = pe.Count(EventType::kTxAttemptStart);
    EXPECT_EQ(tx_starts, attempts_logged[record.id]) << "packet " << record.id;
    int cca_exhausted = 0;
    for (const auto& e : pe.events) {
      if (e.type == EventType::kCcaBusy && e.arg0 <= 0) ++cca_exhausted;
    }
    EXPECT_EQ(tx_starts + cca_exhausted, record.tries)
        << "packet " << record.id;

    // Per-packet timestamp ordering across the lifecycle.
    sim::Time arrival = -1;
    sim::Time service = -1;
    sim::Time completed = -1;
    std::int64_t last_attempt_index = 0;
    for (const auto& e : pe.events) {
      switch (e.type) {
        case EventType::kPacketArrival:
          arrival = e.at;
          break;
        case EventType::kServiceStart:
          service = e.at;
          ASSERT_GE(service, arrival) << "packet " << record.id;
          break;
        case EventType::kTxAttemptStart:
          ASSERT_GE(e.at, service) << "packet " << record.id;
          // Attempt indices strictly increase within the packet.
          ASSERT_GT(e.arg0, last_attempt_index) << "packet " << record.id;
          last_attempt_index = e.arg0;
          break;
        case EventType::kPacketCompleted:
          completed = e.at;
          ASSERT_GE(completed, service) << "packet " << record.id;
          break;
        default:
          break;
      }
    }
    EXPECT_EQ(arrival, record.arrived_at);
    EXPECT_EQ(service, record.service_start);
    EXPECT_EQ(completed, record.completed_at);
  }
  EXPECT_EQ(service_starts, completions);
  EXPECT_GT(service_starts, 0);
}

TEST(TraceInvariants, QueueDepthNeverNegativeAndBounded) {
  auto options = GreyZoneOptions();
  trace::Tracer tracer;
  options.tracer = &tracer;
  const auto result = node::RunLinkSimulation(options);
  (void)result;

  const int capacity = options.config.queue_capacity;
  std::int64_t depth = 0;  // reconstructed occupancy (incl. in-service)
  for (const auto& e : tracer.Events()) {
    switch (e.type) {
      case EventType::kQueueEnqueue:
        ++depth;
        ASSERT_EQ(e.arg0, depth);
        ASSERT_LE(depth, capacity);
        break;
      case EventType::kQueueDrop:
        // Drops only happen at capacity; occupancy unchanged.
        ASSERT_EQ(e.arg0, capacity);
        ASSERT_EQ(depth, capacity);
        break;
      case EventType::kServiceStart:
        // Moving a packet into service does not change occupancy.
        ASSERT_EQ(e.arg0, depth);
        ASSERT_GE(depth, 1);
        break;
      case EventType::kPacketCompleted:
        --depth;
        ASSERT_GE(depth, 0);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(depth, 0) << "every served packet must complete";
}

TEST(TraceInvariants, CountersMatchPacketLog) {
  auto options = GreyZoneOptions();
  trace::Tracer tracer;
  options.tracer = &tracer;
  const auto result = node::RunLinkSimulation(options);

  std::uint64_t drops = 0;
  std::uint64_t acked = 0;
  std::uint64_t tries = 0;
  for (const auto& r : result.log.Packets()) {
    if (r.dropped_at_queue) ++drops;
    if (r.acked) ++acked;
    tries += static_cast<std::uint64_t>(r.tries);
  }

  auto value = [&result](const std::string& name) {
    for (const auto& c : result.counters) {
      if (c.name == name) return c.value;
    }
    return std::uint64_t{0};
  };

  EXPECT_EQ(value("app.packets_generated"),
            static_cast<std::uint64_t>(result.generated));
  EXPECT_EQ(value("link.queue_drops"), drops);
  EXPECT_EQ(value("link.accepted") + drops,
            static_cast<std::uint64_t>(result.generated));
  EXPECT_EQ(value("link.acked"), acked);
  EXPECT_EQ(value("link.completed"), value("link.served"));
  EXPECT_EQ(value("mac.tx_attempts"),
            static_cast<std::uint64_t>(result.log.Attempts().size()));
  EXPECT_EQ(value("mac.cca_busy"), result.cca_busy);
  EXPECT_EQ(value("app.rx_unique"), result.unique_delivered);
  EXPECT_EQ(value("app.rx_duplicates"), result.duplicates);
  EXPECT_EQ(value("sim.events_executed"), result.events_executed);
  EXPECT_LE(value("mac.tx_attempts") + 0, tries);
  // Trace event count cross-check: one TxAttemptStart per attempt record.
  const auto events = tracer.Events();
  const auto tx_events = std::count_if(
      events.begin(), events.end(),
      [](const TraceEvent& e) { return e.type == EventType::kTxAttemptStart; });
  EXPECT_EQ(static_cast<std::uint64_t>(tx_events), value("mac.tx_attempts"));
}

TEST(TraceInvariants, TracingIsObservationalOnly) {
  // A traced run and an untraced run of the same seed must produce the
  // same physics: tracing may never perturb scheduling or RNG draws.
  auto options = GreyZoneOptions();
  const auto plain = metrics::MeasureConfig(options);

  trace::Tracer tracer;
  options.tracer = &tracer;
  const auto traced = metrics::MeasureConfig(options);
  EXPECT_GT(tracer.EmittedCount(), 0u);

  EXPECT_EQ(plain.generated, traced.generated);
  EXPECT_EQ(plain.delivered_unique, traced.delivered_unique);
  EXPECT_EQ(plain.per, traced.per);
  EXPECT_EQ(plain.goodput_kbps, traced.goodput_kbps);
  EXPECT_EQ(plain.energy_uj_per_bit, traced.energy_uj_per_bit);
  EXPECT_EQ(plain.mean_delay_ms, traced.mean_delay_ms);
  EXPECT_EQ(plain.plr_total, traced.plr_total);
}

TEST(TraceInvariants, IdenticalSeedsProduceIdenticalStreams) {
  auto options = GreyZoneOptions();
  trace::Tracer first;
  options.tracer = &first;
  (void)node::RunLinkSimulation(options);

  trace::Tracer second;
  options.tracer = &second;
  (void)node::RunLinkSimulation(options);

  EXPECT_EQ(first.EmittedCount(), second.EmittedCount());
  EXPECT_TRUE(first.Events() == second.Events());
}

TEST(TraceInvariants, LplTrainsMatchTries) {
  node::SimulationOptions options;
  options.mac = node::MacKind::kLpl;
  options.lpl_wakeup_interval_ms = 100.0;
  options.config.distance_m = 30.0;
  options.config.pa_level = 15;
  options.config.max_tries = 3;
  options.config.queue_capacity = 5;
  options.config.pkt_interval_ms = 400.0;
  options.config.payload_bytes = 50;
  options.packet_count = 60;
  options.seed = 11;
  trace::Tracer tracer;
  options.tracer = &tracer;
  const auto result = node::RunLinkSimulation(options);

  const auto by_packet = GroupByPacket(tracer.Events());
  for (const auto& record : result.log.Packets()) {
    if (record.dropped_at_queue) continue;
    const auto& pe = by_packet.at(record.id);
    // One train per MAC-level try; every train radiates at least one copy;
    // the receiver latches awake at most once per train.
    EXPECT_EQ(pe.Count(EventType::kLplTrainStart), record.tries);
    EXPECT_GE(pe.Count(EventType::kLplCopySent),
              pe.Count(EventType::kLplTrainStart));
    EXPECT_LE(pe.Count(EventType::kLplReceiverWake), record.tries);
    // Copies are numbered 1, 2, ... within the packet, across its trains,
    // and each names the train it belongs to.
    std::int64_t copy = 0;
    std::int64_t train = 1;
    for (const auto& e : pe.events) {
      if (e.type != EventType::kLplCopySent) continue;
      EXPECT_EQ(e.arg1, ++copy) << "packet " << record.id;
      EXPECT_GE(e.arg0, train) << "packet " << record.id;
      EXPECT_LE(e.arg0, record.tries) << "packet " << record.id;
      train = e.arg0;
    }
  }
}

// ---------------------------------------------------------------------------
// Exporters

std::vector<TraceEvent> SmallTracedRun(
    std::vector<trace::CounterSample>* counters = nullptr) {
  node::SimulationOptions options;
  options.config.distance_m = 20.0;
  options.config.pa_level = 19;
  options.config.queue_capacity = 5;
  options.config.pkt_interval_ms = 50.0;
  options.config.payload_bytes = 40;
  options.packet_count = 20;
  options.seed = 3;
  trace::Tracer tracer;
  options.tracer = &tracer;
  auto result = node::RunLinkSimulation(options);
  if (counters != nullptr) *counters = std::move(result.counters);
  return tracer.Events();
}

TEST(TraceExport, ChromeJsonIsBalancedAndNamed) {
  std::vector<trace::CounterSample> counters;
  const auto events = SmallTracedRun(&counters);
  const std::string json = trace::ChromeTraceJson(events, counters);

  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  EXPECT_NE(json.find("thread_name"), std::string::npos);
  EXPECT_NE(json.find("TxAttemptStart"), std::string::npos);
  EXPECT_NE(json.find("\"mac.tx_attempts\""), std::string::npos);
  // Per-packet service spans come out as async begin/end pairs.
  EXPECT_NE(json.find("\"ph\":\"b\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"e\""), std::string::npos);

  // Structural sanity: braces and brackets balance (no quoted strings in
  // the format contain either character).
  long braces = 0;
  long brackets = 0;
  for (const char c : json) {
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
    ASSERT_GE(braces, 0);
    ASSERT_GE(brackets, 0);
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST(TraceExport, WritesJsonAndCsvFiles) {
  std::vector<trace::CounterSample> counters;
  const auto events = SmallTracedRun(&counters);

  const std::string json_path = testing::TempDir() + "/wsnlink_trace.json";
  trace::WriteChromeTraceJson(json_path, events, counters);
  std::FILE* f = std::fopen(json_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);

  const std::string csv_path = testing::TempDir() + "/wsnlink_trace.csv";
  trace::WriteTraceCsv(csv_path, events);
  const std::string csv = trace::TraceCsv(events);
  // Header plus one line per event.
  const auto lines = std::count(csv.begin(), csv.end(), '\n');
  EXPECT_EQ(static_cast<std::size_t>(lines), events.size() + 1);
  EXPECT_EQ(csv.rfind("t_us,layer,event,packet_id,arg0,arg1,value", 0), 0u);

  std::remove(json_path.c_str());
  std::remove(csv_path.c_str());
}

TEST(TraceExport, ThrowsOnUnwritablePath) {
  EXPECT_THROW(trace::WriteChromeTraceJson("/nonexistent-dir/x.json", {}),
               std::runtime_error);
  EXPECT_THROW(trace::WriteTraceCsv("/nonexistent-dir/x.csv", {}),
               std::runtime_error);
}

}  // namespace
}  // namespace wsnlink
