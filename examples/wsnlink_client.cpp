// wsnlink_client: line-protocol client and load generator for wsnlinkd.
//
// Reads request lines from a trace file (or stdin), sends each and waits
// for its single-line reply, then prints a latency summary. Doubles as the
// CI load generator: `--out` captures the replies byte-for-byte for golden
// comparison, `--clients N` opens N concurrent connections replaying the
// same trace (their misses share the daemon's pool), and `--inprocess`
// drives a QueryService directly with no socket (for hosts without
// loopback).
//
// Usage:
//   wsnlink_client [--host H] [--port N] [--trace FILE] [--out FILE]
//                  [--repeat N] [--clients N] [--stats] [--inprocess]
//                  [--cache FILE]
//
// Timing lives here, not in the daemon: responses carry no timestamps (the
// determinism contract), so latency is measured where it is experienced.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/query_service.h"
#include "util/args.h"

namespace {

using wsnlink::serve::QueryService;

/// One blocking request/response socket session.
class SocketSession {
 public:
  SocketSession(const std::string& host, std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("client: cannot create socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = ::htons(port);
    if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
      ::close(fd_);
      throw std::runtime_error("client: bad host " + host);
    }
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("client: cannot connect to " + host + ":" +
                               std::to_string(port) + ": " +
                               std::strerror(errno));
    }
  }
  ~SocketSession() {
    if (fd_ >= 0) ::close(fd_);
  }
  SocketSession(const SocketSession&) = delete;
  SocketSession& operator=(const SocketSession&) = delete;

  std::string RoundTrip(const std::string& line) {
    std::string wire = line;
    wire += '\n';
    std::size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = ::send(fd_, wire.data() + sent, wire.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("client: send failed");
      }
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string reply = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return reply;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n == 0) throw std::runtime_error("client: server closed mid-reply");
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("client: recv failed");
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

std::vector<std::string> LoadTrace(const std::string& path) {
  std::vector<std::string> lines;
  std::istream* in = &std::cin;
  std::ifstream file;
  if (!path.empty()) {
    file.open(path);
    if (!file) throw std::runtime_error("client: cannot open trace " + path);
    in = &file;
  }
  std::string line;
  while (std::getline(*in, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty() || line[0] == '#') continue;
    lines.push_back(line);
  }
  return lines;
}

struct RunResult {
  std::vector<std::string> responses;
  std::vector<double> latencies_us;
  std::uint64_t errors = 0;
};

/// Replays the trace `repeat` times over one transport.
template <typename AnswerFn>
RunResult Replay(const std::vector<std::string>& trace, int repeat,
                 AnswerFn&& answer) {
  RunResult result;
  result.responses.reserve(trace.size() * static_cast<std::size_t>(repeat));
  for (int r = 0; r < repeat; ++r) {
    for (const std::string& line : trace) {
      const auto start = std::chrono::steady_clock::now();
      std::string reply = answer(line);
      const auto stop = std::chrono::steady_clock::now();
      result.latencies_us.push_back(
          std::chrono::duration<double, std::micro>(stop - start).count());
      if (reply.find("\"status\":\"error\"") != std::string::npos) {
        ++result.errors;
      }
      result.responses.push_back(std::move(reply));
    }
  }
  return result;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      p * static_cast<double>(values.size() - 1) + 0.5);
  return values[std::min(rank, values.size() - 1)];
}

}  // namespace

int main(int argc, char** argv) {
  using namespace wsnlink;
  try {
    const util::Args args(argc, argv,
                          {"--host", "--port", "--trace", "--out", "--repeat",
                           "--clients", "--cache"},
                          {"--stats", "--inprocess"});
    const std::string host = args.GetString("--host", "127.0.0.1");
    const auto port = static_cast<std::uint16_t>(args.GetSize("--port", 4710));
    const std::string trace_path = args.GetString("--trace", "");
    const std::string out_path = args.GetString("--out", "");
    const int repeat = args.GetPositiveInt("--repeat", 1);
    const int clients = args.GetPositiveInt("--clients", 1);
    const bool want_stats = args.Has("--stats");
    const bool inprocess = args.Has("--inprocess");

    const std::vector<std::string> trace = LoadTrace(trace_path);
    if (trace.empty()) {
      std::fprintf(stderr, "wsnlink_client: empty trace\n");
      return 1;
    }

    std::unique_ptr<QueryService> local;
    if (inprocess) {
      serve::ServiceOptions options;
      options.cache_path = args.GetString("--cache", "");
      local = std::make_unique<QueryService>(options);
    }

    std::vector<RunResult> per_client(static_cast<std::size_t>(clients));
    {
      // A session's error (a refused connect, a daemon gone mid-trace) is
      // carried out of its thread and reported like any other.
      std::vector<std::exception_ptr> errors(per_client.size());
      std::vector<std::thread> threads;
      for (std::size_t c = 0; c < per_client.size(); ++c) {
        threads.emplace_back([&, c] {
          try {
            if (inprocess) {
              per_client[c] = Replay(trace, repeat,
                                     [&](const std::string& line) {
                                       return local->Answer(line);
                                     });
            } else {
              SocketSession session(host, port);
              per_client[c] = Replay(trace, repeat,
                                     [&](const std::string& line) {
                                       return session.RoundTrip(line);
                                     });
            }
          } catch (...) {
            errors[c] = std::current_exception();
          }
        });
      }
      for (std::thread& t : threads) t.join();
      for (const std::exception_ptr& error : errors) {
        if (error) std::rethrow_exception(error);
      }
    }

    // Golden capture uses client 0 (with --clients 1 that is everything).
    if (!out_path.empty()) {
      std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
      if (!out) {
        throw std::runtime_error("client: cannot open out file " + out_path);
      }
      for (const std::string& reply : per_client[0].responses) {
        out << reply << '\n';
      }
    }

    std::vector<double> latencies;
    std::uint64_t errors = 0;
    std::size_t total = 0;
    for (const RunResult& r : per_client) {
      latencies.insert(latencies.end(), r.latencies_us.begin(),
                       r.latencies_us.end());
      errors += r.errors;
      total += r.responses.size();
    }

    if (want_stats) {
      const std::string stats_line = "{\"verb\":\"stats\"}";
      std::string reply;
      if (inprocess) {
        reply = local->Answer(stats_line);
      } else {
        SocketSession session(host, port);
        reply = session.RoundTrip(stats_line);
      }
      std::printf("%s\n", reply.c_str());
    }

    std::printf("wsnlink_client done requests=%zu errors=%llu p50_us=%.1f"
                " p99_us=%.1f\n",
                total, static_cast<unsigned long long>(errors),
                Percentile(latencies, 0.50), Percentile(latencies, 0.99));
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "wsnlink_client: %s\n", e.what());
    return 1;
  }
}
