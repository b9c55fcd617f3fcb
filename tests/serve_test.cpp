// Tuning-service test battery: protocol strictness, canonical cache keys,
// the QueryService answer path, the socket front end, and the checked-in
// response golden.
//
// Suite names all start with Serve so the sanitizer CI lanes pick the
// whole battery up by regex.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/protocol.h"
#include "serve/query_service.h"
#include "serve/server.h"
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

// Several clients sending the same miss in one poll cycle arrive as one
// batch: the line computes once and every copy gets the same bytes, with
// the repeats counted as cache hits.
TEST(ServeService, BatchOfIdenticalWhatIfLinesComputesOnce) {
  ServiceOptions options;
  options.threads = 4;
  QueryService service(options);
  const std::vector<std::string> lines(4, kWhatIfLine);
  const auto replies = service.AnswerBatch(lines);
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

/// Minimal blocking client for the end-to-end tests.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("test client: socket failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = ::htons(port);
    addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("test client: connect failed");
    }
  }
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, 0);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  std::string ReadLine() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("test client: connection closed");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

struct RunningServer {
  explicit RunningServer(QueryService& service, serve::ServerOptions options)
      : server(service, options), thread([this] { server.Run(); }) {}
  ~RunningServer() {
    server.Stop();
    thread.join();
  }
  serve::Server server;
  std::thread thread;
};

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

  constexpr int kLines = 12;
  TestClient client(running.server.Port());
  std::string burst;
  for (int i = 0; i < kLines; ++i) {
    burst += "{\"verb\":\"stats\"}\n";
  }
  client.Send(burst);

  // Every line gets exactly one reply, whether answered or busy-rejected
  // (how many land in one poll cycle is timing-dependent; totals are not).
  int ok = 0;
  int busy = 0;
  for (int i = 0; i < kLines; ++i) {
    const std::string reply = client.ReadLine();
    if (reply.find("\"status\":\"ok\"") != std::string::npos) {
      ++ok;
    } else {
      EXPECT_NE(reply.find("busy"), std::string::npos) << reply;
      ++busy;
    }
  }
  EXPECT_EQ(ok + busy, kLines);
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
