// Tuning-service test battery: protocol strictness, canonical cache keys,
// the QueryService answer path, the socket front end, and the checked-in
// response golden.
//
// Suite names all start with Serve so the sanitizer CI lanes pick the
// whole battery up by regex.
#include <gtest/gtest.h>

#include <dirent.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "serve/protocol.h"
#include "serve/query_service.h"
#include "serve/server.h"
#include "serve_client.h"
#include "util/fault_injection.h"

namespace wsnlink {
namespace {

using serve::CanonicalKey;
using serve::ExtractCompleteLines;
using serve::FormatDouble;
using serve::ParseRequest;
using serve::ProtocolError;
using serve::QueryService;
using serve::Request;
using serve::ServiceOptions;
using serve_test::RunningServer;
using serve_test::ServeOverOneConnection;
using serve_test::TestClient;

constexpr const char* kWhatIfLine =
    "{\"verb\":\"what_if\",\"distance_m\":20,\"pa_level\":31,"
    "\"max_tries\":3,\"retry_delay_ms\":0,\"queue_capacity\":30,"
    "\"pkt_interval_ms\":100,\"payload_bytes\":50,\"packets\":80,"
    "\"seed\":7}";

constexpr const char* kOptimizeLine =
    "{\"verb\":\"optimize\",\"objective\":\"energy\",\"distance_m\":20,"
    "\"pkt_interval_ms\":100,\"min_goodput_kbps\":2,\"max_delay_ms\":50}";

// ---------------------------------------------------------------------------
// Protocol parsing
// ---------------------------------------------------------------------------

TEST(ServeProtocol, ParsesWhatIfRequest) {
  const Request r = ParseRequest(kWhatIfLine);
  EXPECT_EQ(r.verb, serve::Verb::kWhatIf);
  EXPECT_EQ(r.config.distance_m, 20.0);
  EXPECT_EQ(r.config.pa_level, 31);
  EXPECT_EQ(r.config.max_tries, 3);
  EXPECT_EQ(r.config.payload_bytes, 50);
  EXPECT_EQ(r.packets, 80);
  EXPECT_EQ(r.seed, 7u);
  EXPECT_EQ(r.mac, node::MacKind::kCsma);
}

TEST(ServeProtocol, ParsesOptimizeRequestWithConstraints) {
  const Request r = ParseRequest(kOptimizeLine);
  EXPECT_EQ(r.verb, serve::Verb::kOptimize);
  EXPECT_EQ(r.objective, serve::Objective::kEnergy);
  EXPECT_EQ(r.distance_m, 20.0);
  ASSERT_TRUE(r.min_goodput_kbps.has_value());
  EXPECT_EQ(*r.min_goodput_kbps, 2.0);
  ASSERT_TRUE(r.max_delay_ms.has_value());
  EXPECT_EQ(*r.max_delay_ms, 50.0);
  EXPECT_FALSE(r.max_energy_uj_per_bit.has_value());
  EXPECT_FALSE(r.snr_db.has_value());
}

TEST(ServeProtocol, RejectsMalformedRequests) {
  const char* bad[] = {
      "",
      "   ",
      "not json",
      "{",
      "{}",
      "{\"verb\":\"bogus\"}",
      "{\"verb\":\"what_if\",\"pa_level\":4}",          // invalid PA level
      "{\"verb\":\"what_if\",\"payload_bytes\":9999}",  // out of range
      "{\"verb\":\"what_if\",\"packets\":0}",
      "{\"verb\":\"what_if\",\"packets\":999999}",
      "{\"verb\":\"what_if\",\"distance_m\":-3}",
      "{\"verb\":\"what_if\",\"mac\":\"tdma\"}",
      "{\"verb\":\"what_if\",\"unknown_knob\":1}",
      "{\"verb\":\"optimize\",\"objective\":\"karma\"}",
      "{\"verb\":\"optimize\",\"min_goodput_kbps\":2}"
      "{\"verb\":\"optimize\"}",                         // trailing bytes
      "{\"verb\":\"what_if\",\"seed\":1,\"seed\":2}",    // duplicate key
      "{\"verb\":\"what_if\",\"config\":{\"pa\":3}}",    // nested object
      "[1,2,3]",
      "{\"verb\":\"stats\",\"extra\":true}",
  };
  for (const char* line : bad) {
    EXPECT_THROW((void)ParseRequest(line), ProtocolError) << line;
  }
}

TEST(ServeProtocol, RejectsOversizedLine) {
  std::string line = "{\"verb\":\"what_if\",\"seed\":";
  line.append(serve::kMaxRequestBytes, '1');
  line += "}";
  EXPECT_THROW((void)ParseRequest(line), ProtocolError);
}

TEST(ServeProtocol, CanonicalKeyIgnoresSpellingAndKeyOrder) {
  // Same query, different field order, whitespace and number spellings.
  const Request a = ParseRequest(kWhatIfLine);
  const Request b = ParseRequest(
      "{ \"seed\": 7 , \"packets\": 80, \"payload_bytes\": 50,"
      " \"pkt_interval_ms\": 1e2, \"queue_capacity\": 30,"
      " \"retry_delay_ms\": 0.0, \"max_tries\": 3, \"pa_level\": 31,"
      " \"distance_m\": 20.0, \"verb\": \"what_if\" }");
  EXPECT_EQ(CanonicalKey(a), CanonicalKey(b));
}

TEST(ServeProtocol, CanonicalKeySeparatesSeedContracts) {
  Request a = ParseRequest(kWhatIfLine);
  Request b = a;
  b.seed = 8;
  Request c = a;
  c.packets = 81;
  EXPECT_NE(CanonicalKey(a), CanonicalKey(b));
  EXPECT_NE(CanonicalKey(a), CanonicalKey(c));
  // The version tag partitions keys across code versions.
  EXPECT_NE(CanonicalKey(a, "wsnlink-serve-v1"),
            CanonicalKey(a, "wsnlink-serve-v2"));
}

TEST(ServeProtocol, CanonicalKeyRejectsStats) {
  const Request stats = ParseRequest("{\"verb\":\"stats\"}");
  EXPECT_THROW((void)CanonicalKey(stats), std::logic_error);
}

TEST(ServeProtocol, FormatDoubleIsShortestRoundTrip) {
  EXPECT_EQ(FormatDouble(0.0), "0");
  EXPECT_EQ(FormatDouble(20.0), "20");
  EXPECT_EQ(FormatDouble(0.5), "0.5");
  EXPECT_EQ(FormatDouble(-3.25), "-3.25");
}

TEST(ServeProtocol, ExtractCompleteLinesKeepsTail) {
  std::string buffer = "one\r\ntwo\nthr";
  const auto lines = ExtractCompleteLines(buffer);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "one");
  EXPECT_EQ(lines[1], "two");
  EXPECT_EQ(buffer, "thr");

  buffer += "ee\n";
  const auto more = ExtractCompleteLines(buffer);
  ASSERT_EQ(more.size(), 1u);
  EXPECT_EQ(more[0], "three");
  EXPECT_TRUE(buffer.empty());
}

// ---------------------------------------------------------------------------
// QueryService
// ---------------------------------------------------------------------------

TEST(ServeService, WhatIfAnswerIsOkAndCachedByteIdentical) {
  QueryService service(ServiceOptions{});
  const std::string first = service.Answer(kWhatIfLine);
  EXPECT_NE(first.find("\"status\":\"ok\""), std::string::npos) << first;
  EXPECT_NE(first.find("\"verb\":\"what_if\""), std::string::npos);
  EXPECT_NE(first.find("\"goodput_kbps\":"), std::string::npos);

  const std::string second = service.Answer(kWhatIfLine);
  EXPECT_EQ(first, second);

  const auto stats = service.Stats();
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.computed_what_if, 1u);
}

// Identical lines pipelined on one connection compute once: the repeats
// wait for the first copy's miss and are answered from the cache, so they
// count as cache hits and every copy gets the same bytes.
TEST(ServeService, BatchOfIdenticalWhatIfLinesComputesOnce) {
  ServiceOptions options;
  options.threads = 4;
  QueryService service(options);
  const auto replies = ServeOverOneConnection(
      service, std::vector<std::string>(4, kWhatIfLine));
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_NE(replies[0].find("\"status\":\"ok\""), std::string::npos)
      << replies[0];
  for (const std::string& reply : replies) EXPECT_EQ(reply, replies[0]);

  const auto stats = service.Stats();
  EXPECT_EQ(stats.computed_what_if, 1u);
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 3u);
}

TEST(ServeService, LookupAnswersOnlyWhatNeedsNoCompute) {
  QueryService service(ServiceOptions{});
  const auto miss = service.Lookup(kWhatIfLine);
  ASSERT_TRUE(std::holds_alternative<serve::Miss>(miss));
  EXPECT_EQ(service.Stats().requests, 0u);  // a miss counts nothing
  EXPECT_EQ(std::get<serve::Miss>(miss).key,
            CanonicalKey(ParseRequest(kWhatIfLine)));

  // Compute of the returned miss gives the bytes Answer gives.
  const std::string computed = service.Compute(std::get<serve::Miss>(miss));
  QueryService fresh(ServiceOptions{});
  EXPECT_EQ(computed, fresh.Answer(kWhatIfLine));

  const auto hit = service.Lookup(kWhatIfLine);
  ASSERT_TRUE(std::holds_alternative<std::string>(hit));
  EXPECT_EQ(std::get<std::string>(hit), computed);
  const auto error = service.Lookup("not json");
  ASSERT_TRUE(std::holds_alternative<std::string>(error));
  EXPECT_EQ(std::get<std::string>(error).find("{\"status\":\"error\""), 0u);
  const auto stats_reply = service.Lookup("{\"verb\":\"stats\"}");
  ASSERT_TRUE(std::holds_alternative<std::string>(stats_reply));
  EXPECT_NE(std::get<std::string>(stats_reply).find("\"verb\":\"stats\""),
            std::string::npos);

  const auto stats = service.Stats();
  EXPECT_EQ(stats.requests, 4u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.parse_errors, 1u);
}

TEST(ServeService, OptimizeAnswerMatchesDirectSolve) {
  QueryService service(ServiceOptions{});
  const std::string reply = service.Answer(kOptimizeLine);
  EXPECT_NE(reply.find("\"status\":\"ok\""), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"feasible_count\":"), std::string::npos);
  EXPECT_NE(reply.find("\"config\":{"), std::string::npos);
  EXPECT_NE(reply.find("\"prediction\":{"), std::string::npos);
}

TEST(ServeService, InfeasibleOptimizeIsAnswered) {
  QueryService service(ServiceOptions{});
  const std::string reply = service.Answer(
      "{\"verb\":\"optimize\",\"objective\":\"energy\",\"distance_m\":35,"
      "\"min_goodput_kbps\":100000}");
  EXPECT_NE(reply.find("\"status\":\"infeasible\""), std::string::npos)
      << reply;
}

TEST(ServeService, DeadLinkOptimizeRepliesAreJson) {
  // On a dead link the energy per delivered bit is +inf and the implied
  // per-attempt failure rate rounds to 1 (-300 dB) or overflows (-1e6 dB).
  // JSON has no inf or nan token: such numbers render as null, and the
  // mean tries take their limit, max_tries.
  QueryService service(ServiceOptions{});
  for (const char* given :
       {"\"snr_db\":-300", "\"snr_db\":-1e6", "\"distance_m\":10000"}) {
    const std::string reply =
        service.Answer(std::string("{\"verb\":\"optimize\",") + given + "}");
    SCOPED_TRACE(reply);
    ASSERT_EQ(reply.find("{\"status\":\"ok\""), 0u);
    for (const char* token : {"inf", "nan"}) {
      for (const char* before : {":", ":-"}) {
        EXPECT_EQ(reply.find(std::string(before) + token), std::string::npos);
      }
    }
    EXPECT_NE(reply.find("\"energy_uj_per_bit\":null"), std::string::npos);
    const auto field = [&reply](const std::string& name) {
      const std::size_t at = reply.find("\"" + name + "\":");
      EXPECT_NE(at, std::string::npos) << name;
      return reply.substr(at + name.size() + 3,
                          reply.find_first_of(",}", at) - at - name.size() - 3);
    };
    EXPECT_EQ(field("mean_tries"), field("max_tries"));
  }
}

TEST(ServeService, DeadLinkWhatIfRepliesNullNotZero) {
  // Nothing is delivered at 10 km, so there is no energy per delivered
  // bit, no received SNR and no delay: those six fields are null, as
  // optimize renders an infinite energy, not a free link at 0 dB.
  QueryService service(ServiceOptions{});
  const std::string reply = service.Answer(
      "{\"verb\":\"what_if\",\"distance_m\":10000,\"packets\":50}");
  SCOPED_TRACE(reply);
  ASSERT_EQ(reply.find("{\"status\":\"ok\""), 0u);
  EXPECT_NE(reply.find("\"delivered\":0,"), std::string::npos);
  for (const char* name :
       {"energy_uj_per_bit", "mean_delay_ms", "delay_p50_ms", "delay_p99_ms",
        "delay_max_ms", "mean_snr_db"}) {
    EXPECT_NE(reply.find("\"" + std::string(name) + "\":null"),
              std::string::npos)
        << name;
  }
  EXPECT_NE(reply.find("\"goodput_kbps\":0,"), std::string::npos);
}

TEST(ServeService, MalformedLineYieldsStructuredError) {
  QueryService service(ServiceOptions{});
  const std::string reply = service.Answer("garbage");
  EXPECT_EQ(reply.find("{\"status\":\"error\",\"error\":\""), 0u) << reply;
  EXPECT_EQ(reply.find('\n'), std::string::npos);
  const auto stats = service.Stats();
  EXPECT_EQ(stats.parse_errors, 1u);
  EXPECT_EQ(stats.cache_entries, 0u);  // errors are never cached
}

TEST(ServeService, StatsVerbReportsCounters) {
  QueryService service(ServiceOptions{});
  (void)service.Answer(kWhatIfLine);
  const std::string reply = service.Answer("{\"verb\":\"stats\"}");
  EXPECT_NE(reply.find("\"verb\":\"stats\""), std::string::npos);
  EXPECT_NE(reply.find("\"cache_misses\":1"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"cache_entries\":1"), std::string::npos) << reply;
}

TEST(ServeService, ServingSpaceIsValidAndTableIShaped) {
  const auto space = serve::ServingSpace(20.0, 100.0);
  EXPECT_NO_THROW(space.Validate());
  EXPECT_EQ(space.distances_m.size(), 1u);
  EXPECT_EQ(space.pa_levels.size(), 8u);
  EXPECT_GT(space.Size(), 100u);
}

// ---------------------------------------------------------------------------
// Socket front end
// ---------------------------------------------------------------------------

/// A what_if miss with the given seed (distinct seeds, distinct misses).
std::string SmallMiss(int seed) {
  return "{\"verb\":\"what_if\",\"distance_m\":20,\"payload_bytes\":30,"
         "\"packets\":20,\"seed\":" +
         std::to_string(seed) + "}";
}

/// An LPL what_if of one-second trains: about 15 ms of simulation per
/// 1,000 packets in an optimised build.
std::string SlowMiss(int packets) {
  return "{\"verb\":\"what_if\",\"mac\":\"lpl\",\"lpl_wakeup_ms\":1000,"
         "\"pkt_interval_ms\":2000,\"packets\":" +
         std::to_string(packets) + ",\"seed\":11}";
}

TEST(ServeServer, AnswersMixedRequestsOverLoopback) {
  QueryService service(ServiceOptions{});
  RunningServer running(service, serve::ServerOptions{});
  ASSERT_GT(running.server.Port(), 0);

  TestClient client(running.server.Port());
  client.Send(std::string(kWhatIfLine) + "\n" + "malformed\n" +
              std::string(kWhatIfLine) + "\n");
  const std::string first = client.ReadLine();
  const std::string error = client.ReadLine();
  const std::string repeat = client.ReadLine();

  EXPECT_NE(first.find("\"status\":\"ok\""), std::string::npos) << first;
  EXPECT_EQ(error.find("{\"status\":\"error\""), 0u) << error;
  // Replies return in request order and the cached repeat is byte-equal.
  EXPECT_EQ(first, repeat);
  // The socket path answers with the same bytes as the in-process path.
  QueryService local(ServiceOptions{});
  EXPECT_EQ(first, local.Answer(kWhatIfLine));
}

TEST(ServeServer, OverlongLineGetsErrorAndConnectionSurvives) {
  QueryService service(ServiceOptions{});
  RunningServer running(service, serve::ServerOptions{});

  TestClient client(running.server.Port());
  std::string big(serve::kMaxRequestBytes + 100, 'x');
  big += '\n';
  client.Send(big);
  const std::string error = client.ReadLine();
  EXPECT_EQ(error.find("{\"status\":\"error\""), 0u) << error;

  client.Send(std::string(kWhatIfLine) + "\n");
  const std::string ok = client.ReadLine();
  EXPECT_NE(ok.find("\"status\":\"ok\""), std::string::npos) << ok;
}

TEST(ServeServer, MaxInflightOverflowIsBusyRejectedNotDropped) {
  QueryService service(ServiceOptions{});
  serve::ServerOptions options;
  options.max_inflight = 2;
  RunningServer running(service, options);

  // Distinct misses: hits, stats and parse errors are answered at once and
  // never count against the cap.
  constexpr int kLines = 12;
  TestClient client(running.server.Port());
  std::string burst;
  for (int i = 0; i < kLines; ++i) burst += SmallMiss(100 + i) + "\n";
  client.Send(burst);

  // Every line gets exactly one reply, whether answered or busy-rejected
  // (how many are queued at once is timing-dependent; totals are not).
  QueryService local(ServiceOptions{});
  int ok = 0;
  int busy = 0;
  for (int i = 0; i < kLines; ++i) {
    const std::string reply = client.ReadLine();
    if (reply.find("\"status\":\"ok\"") != std::string::npos) {
      EXPECT_EQ(reply, local.Answer(SmallMiss(100 + i)));
      ++ok;
    } else {
      EXPECT_NE(reply.find("busy"), std::string::npos) << reply;
      ++busy;
    }
  }
  EXPECT_EQ(ok + busy, kLines);
  EXPECT_GE(ok, 2);
  EXPECT_EQ(service.Stats().busy_rejected, static_cast<std::uint64_t>(busy));
}

TEST(ServeServer, ShortWritesAndEintrNeverCorruptResponses) {
  QueryService service(ServiceOptions{});
  RunningServer running(service, serve::ServerOptions{});

  // Reference bytes from an uninstrumented in-process answer path.
  QueryService local(ServiceOptions{});
  const std::string expected_ok = local.Answer(kWhatIfLine);
  const std::string expected_stats_shape = "\"verb\":\"stats\"";

  // Degrade most sends at the "serve.send" site: a multi-hundred-byte
  // reply now dribbles out one byte at a time, interleaved with EINTRs.
  // The schedule is a seeded hash of the operation ordinal, so the drill
  // replays identically. The responses must still arrive byte-exact and
  // in request order.
  util::ScopedFaultInjection injection;
  injection->FailWithProbability("serve.send", 0.95, /*seed=*/20150629);

  TestClient client(running.server.Port());
  client.Send(std::string(kWhatIfLine) + "\n" + "{\"verb\":\"stats\"}\n" +
              std::string(kWhatIfLine) + "\n");
  const std::string first = client.ReadLine();
  const std::string stats = client.ReadLine();
  const std::string repeat = client.ReadLine();

  EXPECT_EQ(first, expected_ok);
  EXPECT_EQ(repeat, expected_ok);
  EXPECT_NE(stats.find(expected_stats_shape), std::string::npos) << stats;

  // The drill only counts if the fault site actually fired — and fired
  // often enough to exercise both the short-write and the EINTR arm.
  EXPECT_GT(util::FaultInjector::Global().Injected("serve.send"), 10u);
}

TEST(ServeServer, ConcurrentClientsAllGetTheirOwnAnswers) {
  QueryService service(ServiceOptions{});
  RunningServer running(service, serve::ServerOptions{});

  constexpr int kClients = 4;
  constexpr int kRequests = 3;
  std::vector<std::vector<std::string>> replies(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      TestClient client(running.server.Port());
      for (int r = 0; r < kRequests; ++r) {
        client.Send(std::string(kWhatIfLine) + "\n");
        replies[static_cast<std::size_t>(c)].push_back(client.ReadLine());
      }
    });
  }
  for (auto& t : threads) t.join();

  const std::string expected = replies[0][0];
  EXPECT_NE(expected.find("\"status\":\"ok\""), std::string::npos);
  for (const auto& per_client : replies) {
    ASSERT_EQ(per_client.size(), static_cast<std::size_t>(kRequests));
    for (const auto& reply : per_client) EXPECT_EQ(reply, expected);
  }
  EXPECT_EQ(service.Stats().computed_what_if, 1u);  // one compute, rest hits
}

// A long LPL miss on one connection must not delay hits on another: the
// miss computes on the pool while the loop keeps answering.
TEST(ServeServer, HitIsAnsweredWhileAMissComputes) {
  QueryService service(ServiceOptions{});
  const std::string hit = service.Answer(kWhatIfLine);
  RunningServer running(service, serve::ServerOptions{});

  TestClient a(running.server.Port());
  a.Send(SlowMiss(10'000) + "\n");  // about 150 ms
  // The miss is computing once it is counted.
  while (service.Stats().cache_misses < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  TestClient b(running.server.Port());
  for (int i = 0; i < 20; ++i) {
    b.Send(std::string(kWhatIfLine) + "\n");
    EXPECT_EQ(b.ReadLine(), hit);
  }
  EXPECT_FALSE(a.Readable(0)) << "the miss was answered before the hits";
  const std::string reply = a.ReadLine();
  EXPECT_EQ(reply.find("{\"status\":\"ok\",\"verb\":\"what_if\""), 0u) << reply;
  EXPECT_EQ(service.Stats().cache_hits, 20u);
}

// Replies to pipelined lines leave in arrival order, whatever order they
// are answered in, and each has the bytes Answer gives.
TEST(ServeServer, PipelinedRepliesKeepArrivalOrder) {
  QueryService service(ServiceOptions{});
  (void)service.Answer(SmallMiss(1));
  QueryService local(ServiceOptions{});

  const std::vector<std::string> lines = {
      std::string(kWhatIfLine), SmallMiss(1), kOptimizeLine,
      "{\"verb\":\"stats\"}",   "malformed",  SmallMiss(1)};
  const auto replies = ServeOverOneConnection(service, lines);
  ASSERT_EQ(replies.size(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i == 3) {
      EXPECT_EQ(replies[i].find("{\"status\":\"ok\",\"verb\":\"stats\""), 0u)
          << replies[i];
    } else {
      EXPECT_EQ(replies[i], local.Answer(lines[i])) << "line " << i;
    }
  }
}

TEST(ServeServer, IdenticalMissesInFlightComputeOnce) {
  ServiceOptions options;
  options.threads = 0;
  QueryService service(options);
  RunningServer running(service, serve::ServerOptions{});

  // A miss long enough (about 30 ms) for every copy to arrive while it
  // computes.
  const std::string miss = SlowMiss(2'000);
  constexpr std::size_t kClients = 4;
  std::vector<std::unique_ptr<TestClient>> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<TestClient>(running.server.Port()));
  }
  for (const auto& client : clients) client->Send(miss + "\n");
  std::vector<std::string> replies;
  for (const auto& client : clients) replies.push_back(client->ReadLine());

  EXPECT_EQ(replies[0].find("{\"status\":\"ok\""), 0u) << replies[0];
  for (const std::string& reply : replies) EXPECT_EQ(reply, replies[0]);
  const auto stats = service.Stats();
  EXPECT_EQ(stats.computed_what_if, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, kClients - 1);
}

// Two spellings of one request pipelined while the first computes: the
// server names misses by canonical key, so the second waits for the first
// and is answered from the cache with the same bytes.
TEST(ServeServer, DifferentSpellingsInFlightComputeOnce) {
  ServiceOptions options;
  options.threads = 0;
  QueryService service(options);
  RunningServer running(service, serve::ServerOptions{});

  const std::string miss = SlowMiss(2'000);
  const std::string respelled =
      "{ \"seed\": 11 ,  \"packets\": 2000, \"pkt_interval_ms\": 2000,"
      "  \"lpl_wakeup_ms\": 1000, \"mac\": \"lpl\",  \"verb\": \"what_if\" }";
  ASSERT_EQ(CanonicalKey(ParseRequest(miss)),
            CanonicalKey(ParseRequest(respelled)));

  TestClient client(running.server.Port());
  client.Send(miss + "\n" + respelled + "\n");
  const std::string first = client.ReadLine();
  const std::string second = client.ReadLine();

  EXPECT_EQ(first.find("{\"status\":\"ok\",\"verb\":\"what_if\""), 0u) << first;
  EXPECT_EQ(second, first);
  const auto stats = service.Stats();
  EXPECT_EQ(stats.computed_what_if, 1u);
  EXPECT_EQ(stats.cache_misses, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
}

// A peer that resets while its misses compute: their replies are dropped,
// the answers are still cached, and the loop keeps serving.
TEST(ServeServer, ClosingWithAMissInFlightIsSafe) {
  QueryService service(ServiceOptions{});
  RunningServer running(service, serve::ServerOptions{});
  const std::string miss = SlowMiss(2'000);
  {
    TestClient leaver(running.server.Port());
    leaver.Send(miss + "\n" + miss + "\n" + SmallMiss(8) + "\n");
    while (service.Stats().cache_misses == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    leaver.Abort();
  }
  TestClient stayer(running.server.Port());
  stayer.Send(miss + "\n");
  QueryService local(ServiceOptions{});
  EXPECT_EQ(stayer.ReadLine(), local.Answer(miss));
  running.Stop();

  const auto stats = service.Stats();
  EXPECT_GE(stats.computed_what_if, 1u);
  EXPECT_EQ(stats.cache_entries, stats.computed_what_if);
}

// Stop must return although a peer pipelined more replies than the socket
// buffers hold and never reads: the shutdown flush waits a bounded time.
TEST(ServeServer, StopReturnsWhileAPeerNeverReads) {
  QueryService service(ServiceOptions{});
  (void)service.Answer(kWhatIfLine);
  RunningServer running(service, serve::ServerOptions{});

  // About 5 MB of replies behind a 4 KB receive window.
  constexpr std::uint64_t kRequests = 12'000;
  TestClient silent(running.server.Port(), /*receive_buffer=*/4096);
  std::string burst;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    burst += kWhatIfLine;
    burst += '\n';
  }
  silent.Send(burst);
  while (service.Stats().cache_hits < kRequests) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  const auto start = std::chrono::steady_clock::now();
  running.Stop();
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(5));
}

// A peer that pipelines thousands of hits and reads late leaves megabytes
// queued on its connection. Short writes at the "serve.send" site split
// the drain into many sends; every reply must still arrive, in order.
TEST(ServeServer, LargeBacklogDrainsByteExact) {
  QueryService service(ServiceOptions{});
  const std::string expected = service.Answer(kWhatIfLine);
  RunningServer running(service, serve::ServerOptions{});
  // Loopback send buffers take megabytes per send, so most sends are cut
  // short for the site to fire often whatever the buffer sizes.
  util::ScopedFaultInjection injection;
  injection->FailWithProbability("serve.send", 0.9, /*seed=*/34);

  // About 5 MB of replies behind a 4 KB receive window.
  constexpr std::uint64_t kRequests = 12'000;
  TestClient late(running.server.Port(), /*receive_buffer=*/4096);
  std::string burst;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    burst += kWhatIfLine;
    burst += '\n';
  }
  late.Send(burst);
  while (service.Stats().cache_hits < kRequests) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  std::uint64_t exact = 0;
  for (std::uint64_t i = 0; i < kRequests; ++i) {
    exact += late.ReadLine() == expected ? 1 : 0;
  }
  EXPECT_EQ(exact, kRequests);
  EXPECT_GT(util::FaultInjector::Global().Injected("serve.send"), 10u);
}

/// Highest open descriptor of this process.
int HighestOpenFd() {
  int highest = 2;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return 64;
  while (const dirent* entry = ::readdir(dir)) {
    int fd = 0;
    std::istringstream(entry->d_name) >> fd;
    highest = std::max(highest, fd);
  }
  ::closedir(dir);
  return highest;
}

/// User plus system CPU time of `pid` in milliseconds.
long CpuMs(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  const std::string stat((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  // After the parenthesised command come field 3 (state) onwards; utime
  // and stime are fields 14 and 15, in clock ticks.
  std::istringstream fields(stat.substr(stat.rfind(')') + 2));
  std::string skipped;
  for (int field = 3; field < 14; ++field) fields >> skipped;
  long utime = 0;
  long stime = 0;
  fields >> utime >> stime;
  return (utime + stime) * 1000 / ::sysconf(_SC_CLK_TCK);
}

/// Sends `stats` and reads its reply; false if the server closed the
/// connection instead. Fails the test if neither happens within 5 s.
bool AnsweredOrClosed(TestClient& client) {
  try {
    client.Send("{\"verb\":\"stats\"}\n");
    if (!client.Readable(5000)) {
      ADD_FAILURE() << "no reply and no close within 5 s";
      return false;
    }
    return client.ReadLine().find("\"verb\":\"stats\"") != std::string::npos;
  } catch (const std::runtime_error&) {
    return false;
  }
}

// At the descriptor limit a pending connection is accepted and closed at
// once, instead of leaving the listen socket readable for poll() to spin
// on. The server runs in a child whose RLIMIT_NOFILE is a few descriptors
// above what it holds.
TEST(ServeServer, AcceptAtTheDescriptorLimitShedsInsteadOfSpinning) {
  int port_pipe[2];
  ASSERT_EQ(::pipe(port_pipe), 0);
  const pid_t child = ::fork();
  ASSERT_GE(child, 0);
  if (child == 0) {
    ::close(port_pipe[0]);
    QueryService service(ServiceOptions{});
    serve::Server server(service, serve::ServerOptions{});
    const std::uint16_t port = server.Port();
    const bool sent = ::write(port_pipe[1], &port, sizeof(port)) ==
                      static_cast<ssize_t>(sizeof(port));
    ::close(port_pipe[1]);
    rlimit limit{};
    limit.rlim_cur = static_cast<rlim_t>(HighestOpenFd() + 1 + 3);
    limit.rlim_max = limit.rlim_cur;
    if (!sent || ::setrlimit(RLIMIT_NOFILE, &limit) != 0) std::_Exit(2);
    server.Run();
    std::_Exit(0);
  }
  ::close(port_pipe[1]);
  std::uint16_t port = 0;
  ASSERT_EQ(::read(port_pipe[0], &port, sizeof(port)),
            static_cast<ssize_t>(sizeof(port)));
  ::close(port_pipe[0]);

  // A few connections fit under the limit; the others must be closed by
  // the server, not left hanging.
  constexpr int kClients = 8;
  std::vector<std::unique_ptr<TestClient>> clients;
  for (int i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<TestClient>(port));
  }
  std::vector<TestClient*> served;
  for (const auto& client : clients) {
    if (AnsweredOrClosed(*client)) served.push_back(client.get());
  }
  EXPECT_GE(served.size(), 2u);
  EXPECT_LT(served.size(), static_cast<std::size_t>(kClients));

  // Idle at the limit: no spinning.
  const long cpu_before = CpuMs(child);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_LT(CpuMs(child) - cpu_before, 50);

  // Freed descriptors serve new clients again.
  if (served.size() >= 2) {
    served[0]->Close();
    served[1]->Close();
  }
  bool answered = false;
  for (int attempt = 0; attempt < 50 && !answered; ++attempt) {
    // Until the loop has seen the closes, a new client is still shed.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    TestClient fresh(port);
    answered = AnsweredOrClosed(fresh);
  }
  EXPECT_TRUE(answered);

  ::kill(child, SIGKILL);
  int status = 0;
  ::waitpid(child, &status, 0);
  EXPECT_TRUE(WIFSIGNALED(status)) << "the server child exited: " << status;
}

// ---------------------------------------------------------------------------
// Response golden
// ---------------------------------------------------------------------------

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

TEST(ServeGolden, TraceResponsesMatchCheckedInFile) {
  const std::string dir = WSNLINK_GOLDEN_DIR;
  const std::string trace_text = ReadFileOrDie(dir + "/serve_trace.txt");
  const std::string golden = ReadFileOrDie(dir + "/serve_responses.txt");
  ASSERT_FALSE(trace_text.empty());
  ASSERT_FALSE(golden.empty());

  std::vector<std::string> lines;
  std::istringstream in(trace_text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    lines.push_back(line);
  }
  ASSERT_FALSE(lines.empty());

  QueryService service(ServiceOptions{});
  std::string actual;
  for (const std::string& request : lines) {
    actual += service.Answer(request);
    actual += '\n';
  }
  EXPECT_EQ(actual, golden)
      << "serve responses drifted from tests/golden/serve_responses.txt —"
         " if the change is intentional (simulator physics, response"
         " schema), bump kServeVersionTag and run tests/golden/regen.sh";
}

}  // namespace
}  // namespace wsnlink
