// The serve workload: wsnlinkd in-process (QueryService + Server) driven
// closed-loop over loopback, and its traced per-request replay.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <thread>

#include "serve/protocol.h"
#include "serve/query_service.h"
#include "serve/result_cache.h"
#include "serve/server.h"
#include "util/thread_pool.h"
#include "workload_common.h"

namespace perfbench {

namespace fs = std::filesystem;
namespace serve = wsnlink::serve;

namespace {

// Nominal seconds of one 4,000-request pass on a 4-vCPU x86 host.
constexpr double kServePassSeconds = 1.0;

constexpr std::size_t kConnections = 3;

std::string WarmPath(const RunSpec& spec) {
  return spec.work_dir + "/warm.cache";
}
std::string DaemonPath(const RunSpec& spec) {
  return spec.work_dir + "/daemon.cache";
}

serve::ServiceOptions DaemonOptions(const std::string& cache_path) {
  // What `wsnlinkd --cache FILE --threads 1` sets.
  serve::ServiceOptions o;
  o.threads = 1;
  o.cache_path = cache_path;
  o.persist_every = 1;
  return o;
}

bool IsOk(const std::string& reply) {
  return reply.rfind("{\"status\":\"ok\"", 0) == 0 ||
         reply.rfind("{\"status\":\"infeasible\"", 0) == 0;
}

/// wsnlinkd in-process: the service, its server and the poll-loop thread.
class Daemon {
 public:
  explicit Daemon(const std::string& cache_path)
      : service_(DaemonOptions(cache_path)),
        server_(service_, serve::ServerOptions{}),
        loop_([this] {
          try {
            server_.Run();
          } catch (const std::exception& e) {
            error_ = e.what();
          }
        }) {}
  ~Daemon() { Shutdown(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Stops and joins the poll loop; Error() is readable afterwards.
  void Shutdown() {
    if (!loop_.joinable()) return;
    server_.Stop();
    loop_.join();
  }

  [[nodiscard]] std::uint16_t Port() const { return server_.Port(); }
  [[nodiscard]] serve::ServiceStats Stats() const { return service_.Stats(); }
  [[nodiscard]] const std::string& Error() const { return error_; }

 private:
  serve::QueryService service_;
  serve::Server server_;
  std::string error_;
  std::thread loop_;
};

/// One client thread holding kConnections blocking loopback connections.
class Client {
 public:
  explicit Client(std::uint16_t port) {
    for (std::size_t c = 0; c < kConnections; ++c) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) throw std::runtime_error("socket failed");
      fds_.push_back(fd);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
        throw std::runtime_error(std::string("connect failed: ") +
                                 std::strerror(errno));
      }
    }
  }
  ~Client() {
    for (const int fd : fds_) ::close(fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends the requests closed-loop (each connection sends its next request
  /// only after its previous reply) and returns the replies; latencies_us[i]
  /// is request i's send-to-reply time.
  std::vector<std::string> Drive(const std::vector<ServeRequest>& requests,
                                 std::vector<double>& latencies_us) {
    std::vector<std::string> replies(requests.size());
    latencies_us.assign(requests.size(), 0.0);
    std::vector<std::size_t> pending(kConnections);
    std::vector<std::uint64_t> sent_ns(kConnections);
    std::vector<std::string> inbox(kConnections);
    std::size_t next = 0;
    std::size_t answered = 0;
    const auto send_next = [&](std::size_t c) {
      if (next >= requests.size()) return;
      pending[c] = next;
      const std::string line = requests[next].line + "\n";
      ++next;
      sent_ns[c] = NowNs();
      SendAll(fds_[c], line);
    };
    for (std::size_t c = 0; c < kConnections; ++c) send_next(c);
    std::vector<pollfd> polls(kConnections);
    char buf[65536];
    while (answered < requests.size()) {
      for (std::size_t c = 0; c < kConnections; ++c) {
        polls[c] = {fds_[c], POLLIN, 0};
      }
      const int ready = ::poll(polls.data(), polls.size(), 60000);
      if (ready == 0) throw std::runtime_error("serve: no reply within 60 s");
      if (ready < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("serve: poll failed");
      }
      for (std::size_t c = 0; c < kConnections; ++c) {
        if ((polls[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        const ssize_t n = ::recv(fds_[c], buf, sizeof(buf), 0);
        if (n <= 0) throw std::runtime_error("serve: connection closed");
        inbox[c].append(buf, static_cast<std::size_t>(n));
        std::size_t newline;
        while ((newline = inbox[c].find('\n')) != std::string::npos) {
          const std::uint64_t now = NowNs();
          const std::size_t i = pending[c];
          replies[i] = inbox[c].substr(0, newline);
          inbox[c].erase(0, newline + 1);
          latencies_us[i] = static_cast<double>(now - sent_ns[c]) * 1e-3;
          ++answered;
          send_next(c);
        }
      }
    }
    return replies;
  }

 private:
  static void SendAll(int fd, const std::string& bytes) {
    std::size_t off = 0;
    while (off < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + off, bytes.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error("serve: send failed");
      }
      off += static_cast<std::size_t>(n);
    }
  }

  std::vector<int> fds_;
};

struct ServePass {
  std::vector<std::string> replies;
  std::vector<double> latencies_us;
  std::uint64_t wall_ns = 0;
  serve::ServiceStats stats;
};

/// One closed-loop pass against a daemon warm-started from the prepared
/// cache (set-up untimed here).
ServePass RunServePass(const RunSpec& spec, const ServeInputs& inputs) {
  fs::copy_file(WarmPath(spec), DaemonPath(spec),
                fs::copy_options::overwrite_existing);
  ServePass pass;
  Daemon daemon(DaemonPath(spec));
  {
    Client client(daemon.Port());
    const std::uint64_t t0 = NowNs();
    pass.replies = client.Drive(inputs.requests, pass.latencies_us);
    pass.wall_ns = NowNs() - t0;
  }
  pass.stats = daemon.Stats();
  daemon.Shutdown();
  if (!daemon.Error().empty()) {
    throw std::runtime_error("serve: daemon loop failed: " + daemon.Error());
  }
  return pass;
}

/// Byte-compares every reply with a fresh memory-only answer of its line;
/// returns the number of error/busy/mismatched replies.
std::size_t CheckReplies(Result& r, const ServeInputs& inputs,
                         const std::vector<std::string>& replies) {
  serve::ServiceOptions o;
  o.threads = 1;
  serve::QueryService fresh(o);
  std::map<std::string, std::string> reference;
  std::size_t bad = 0;
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const std::string& line = inputs.requests[i].line;
    auto it = reference.find(line);
    if (it == reference.end()) {
      it = reference.emplace(line, fresh.Answer(line)).first;
    }
    if (!IsOk(replies[i]) || replies[i] != it->second) ++bad;
  }
  r.Check(bad == 0, "serve: " + std::to_string(bad) +
                        " replies are errors or differ from a fresh answer");
  return bad;
}

/// Replies of a later pass must repeat the first pass's bytes.
std::size_t CountDiffering(const std::vector<std::string>& a,
                          const std::vector<std::string>& b) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < a.size(); ++i) bad += a[i] != b[i] ? 1 : 0;
  return bad;
}

void CheckServeStats(Result& r, const ServeInputs& inputs,
                     const serve::ServiceStats& stats) {
  std::uint64_t hits = 0;
  for (const auto& q : inputs.requests) {
    if (q.kind == ServeRequest::Kind::kHit) ++hits;
  }
  r.Check(stats.cache_hits == hits &&
              stats.cache_misses == inputs.requests.size() - hits &&
              stats.busy_rejected == 0 && stats.parse_errors == 0 &&
              stats.persist_failures == 0 &&
              stats.warm_loaded == inputs.warm_lines.size(),
          "serve: daemon stats disagree with the request stream");
}

struct SplitLatency {
  std::vector<double> all, hits, misses;
};

void Split(SplitLatency& out, const ServeInputs& inputs,
           const std::vector<double>& latencies_us) {
  for (std::size_t i = 0; i < latencies_us.size(); ++i) {
    out.all.push_back(latencies_us[i]);
    (inputs.requests[i].kind == ServeRequest::Kind::kHit ? out.hits
                                                         : out.misses)
        .push_back(latencies_us[i]);
  }
}

struct ServeReplay {
  std::vector<std::string> replies;
  std::uint64_t wall_ns = 0;
  std::uint64_t persist_bytes = 0;
};

/// The daemon's per-request pipeline in-process through its public calls:
/// parse, canonical key, cache lookup; a hit answered by a warm service, a
/// miss computed by a memory-only service, stored, and persisted with
/// ResultCache::Save at the cache's size at that point.
ServeReplay ReplayServe(const RunSpec& spec, const ServeInputs& inputs,
                        SpanRecorder& rec) {
  ServeReplay out;
  fs::copy_file(WarmPath(spec), DaemonPath(spec),
                fs::copy_options::overwrite_existing);
  serve::ServiceOptions warm_options;
  warm_options.threads = 1;
  warm_options.cache_path = DaemonPath(spec);
  warm_options.persist_every = inputs.requests.size() + 1;
  serve::QueryService warm(warm_options);
  serve::ServiceOptions cold_options;
  cold_options.threads = 1;
  serve::QueryService cold(cold_options);
  const std::string persist_path = spec.work_dir + "/replay.cache";

  const std::uint64_t t0 = NowNs();
  serve::ResultCache cache{std::string(serve::kServeVersionTag)};
  {
    Scoped span(rec, "serve.warm_load");
    (void)cache.Load(WarmPath(spec));
  }
  out.replies.reserve(inputs.requests.size());
  for (std::size_t i = 0; i < inputs.requests.size(); ++i) {
    const ServeRequest& q = inputs.requests[i];
    Scoped request_span(rec, "bench.request", i + 1);
    serve::Request request;
    {
      Scoped span(rec, "serve.parse", i + 1);
      request = serve::ParseRequest(q.line);
    }
    std::string key;
    {
      Scoped span(rec, "serve.key", i + 1);
      key = serve::CanonicalKey(request);
    }
    std::string cached;
    {
      Scoped span(rec, "serve.lookup", i + 1);
      cached = cache.Lookup(key);
    }
    if (!cached.empty()) {
      Scoped span(rec, "serve.answer_hit", i + 1);
      out.replies.push_back(warm.Answer(q.line));
      continue;
    }
    const char* name = q.kind == ServeRequest::Kind::kLpl ? "serve.answer_lpl"
                       : q.kind == ServeRequest::Kind::kOptimize
                           ? "serve.answer_optimize"
                           : "serve.answer_whatif";
    {
      Scoped span(rec, name, i + 1);
      out.replies.push_back(cold.Answer(q.line));
    }
    cache.Store(key, out.replies.back());
    {
      Scoped span(rec, "serve.persist", i + 1);
      cache.Save(persist_path);
    }
    out.persist_bytes += fs::file_size(persist_path);
  }
  out.wall_ns = NowNs() - t0;
  return out;
}

}  // namespace

void PrepareServe(const RunSpec& spec) {
  const ServeInputs inputs = MakeServeInputs(spec.seed);
  serve::ServiceOptions o;
  o.threads = 1;
  o.cache_path = WarmPath(spec);
  o.persist_every = inputs.warm_lines.size() + 1;
  fs::remove(o.cache_path);
  serve::QueryService service(o);
  for (const std::string& line : inputs.warm_lines) {
    if (!IsOk(service.Answer(line))) {
      throw std::runtime_error("serve: warm request failed: " + line);
    }
  }
  if (!service.Flush()) throw std::runtime_error("serve: warm cache not saved");
}

double TimeServeSetUp(const RunSpec& spec) {
  // The copy of the prepared cache is untimed; the warm start, the bind and
  // the client connections are the set-up.
  fs::copy_file(WarmPath(spec), DaemonPath(spec),
                fs::copy_options::overwrite_existing);
  const std::uint64_t t0 = NowNs();
  (void)wsnlink::util::ThreadPool::Shared();
  Daemon daemon(DaemonPath(spec));
  Client client(daemon.Port());
  return Seconds(NowNs() - t0);
}

Result MeasureServe(const RunSpec& spec) {
  Result r;
  const ServeInputs inputs = MakeServeInputs(spec.seed);
  (void)wsnlink::util::ThreadPool::Shared();
  const int passes = Passes(spec, kServePassSeconds, 2);
  std::vector<double> rates;
  SplitLatency lat;
  std::vector<std::string> replies;
  for (int p = 0; p < passes; ++p) {
    ServePass pass = RunServePass(spec, inputs);
    rates.push_back(static_cast<double>(inputs.requests.size()) /
                    Seconds(pass.wall_ns));
    Split(lat, inputs, pass.latencies_us);
    CheckServeStats(r, inputs, pass.stats);
    r.attempted += inputs.requests.size();
    if (p == 0) {
      replies = std::move(pass.replies);
    } else {
      const std::size_t bad = CountDiffering(replies, pass.replies);
      r.Check(bad == 0, "serve: replies differ between passes");
      r.failed += bad;
    }
  }
  r.failed += CheckReplies(r, inputs, replies);

  AddThroughput(r, rates);
  AddItemLatency(r, lat.all, "one reply over the closed loop");
  r.Add("peak_rss_mb", PeakRssMb(), "MB");
  const Quantile hit50 = Percentile(lat.hits, 0.5);
  const Quantile hit99 = Percentile(lat.hits, 0.99);
  const Quantile miss50 = Percentile(lat.misses, 0.5);
  const Quantile miss90 = Percentile(lat.misses, 0.9);
  r.notes.push_back("hit_p50_us " + std::to_string(hit50.value) +
                    " hit_p99_us " + std::to_string(hit99.value) + " (" +
                    std::to_string(hit50.samples) + " hits)");
  r.notes.push_back("miss_p50_us " + std::to_string(miss50.value) +
                    " miss_p90_us " + std::to_string(miss90.value) + " (" +
                    std::to_string(miss50.samples) + " misses)");
  r.notes.push_back("passes " + std::to_string(passes) + " x " +
                    std::to_string(inputs.requests.size()) +
                    " requests over " + std::to_string(kConnections) +
                    " connections, warm cache " +
                    std::to_string(inputs.warm_lines.size()) + " entries");
  return r;
}

Result TraceServe(const RunSpec& spec) {
  Result r;
  const ServeInputs inputs = MakeServeInputs(spec.seed);
  (void)wsnlink::util::ThreadPool::Shared();
  ServePass pass = RunServePass(spec, inputs);
  CheckServeStats(r, inputs, pass.stats);
  SplitLatency lat;
  Split(lat, inputs, pass.latencies_us);
  r.attempted += inputs.requests.size();

  SpanRecorder off(false);
  const ServeReplay before = ReplayServe(spec, inputs, off);
  SpanRecorder rec(true, inputs.requests.size() * 5 + 16);
  const ServeReplay traced = ReplayServe(spec, inputs, rec);
  const ServeReplay untraced = ReplayServe(spec, inputs, off);
  r.failed += CheckReplies(r, inputs, pass.replies);
  r.Check(before.replies == pass.replies &&
              untraced.replies == pass.replies && traced.replies == pass.replies,
          "serve: replayed replies differ from the daemon's");

  const auto& spans = rec.Spans();
  const auto self = SelfTimesNs(spans);
  WriteSpans(spec, rec, self);
  const double hit_p50 = Percentile(lat.hits, 0.5).value;
  const double answer_hit = MeanSelf(spans, self, "serve.answer_hit", 1e3);
  const SpanStats persist = StatsFor(spans, self, "serve.persist");
  r.Add("serve.parse_us", MeanSelf(spans, self, "serve.parse", 1e3), "us");
  r.Add("serve.key_us", MeanSelf(spans, self, "serve.key", 1e3), "us");
  r.Add("serve.lookup_us", MeanSelf(spans, self, "serve.lookup", 1e3), "us");
  r.Add("serve.answer_hit_us", answer_hit, "us");
  r.Add("serve.transport_us", hit_p50 - answer_hit, "us");
  r.Add("serve.answer_whatif_us",
        MeanSelf(spans, self, "serve.answer_whatif", 1e3), "us");
  r.Add("serve.answer_lpl_us", MeanSelf(spans, self, "serve.answer_lpl", 1e3),
        "us");
  r.Add("serve.answer_optimize_us",
        MeanSelf(spans, self, "serve.answer_optimize", 1e3), "us");
  r.Add("serve.persist_ms", MeanSelf(spans, self, "serve.persist", 1e6), "ms");
  r.Add("serve.persist_mb", static_cast<double>(traced.persist_bytes) / 1e6,
        "MB");
  r.Add("serve.warm_load_ms", MeanSelf(spans, self, "serve.warm_load", 1e6),
        "ms");
  r.Add("serve.hit_ratio",
        Ratio(static_cast<double>(pass.stats.cache_hits),
              static_cast<double>(pass.stats.requests)),
        "ratio");
  r.Add("serve.hit_p50_us", hit_p50, "us");
  r.Add("serve.hit_p99_us", Percentile(lat.hits, 0.99).value, "us");
  r.Add("serve.miss_p50_us", Percentile(lat.misses, 0.5).value, "us");
  r.Add("serve.miss_p90_us", Percentile(lat.misses, 0.9).value, "us");
  r.Add("trace.span_coverage",
        Ratio(static_cast<double>(LayerCoverageNs(spans)),
              static_cast<double>(traced.wall_ns)),
        "ratio");
  r.Add("trace.overhead_s", Overhead(traced.wall_ns, before.wall_ns,
                                     untraced.wall_ns),
        "s");
  r.notes.push_back(
      "persist share of miss answers: " +
      std::to_string(Ratio(
          static_cast<double>(persist.self_ns),
          static_cast<double>(
              persist.self_ns +
              StatsFor(spans, self, "serve.answer_whatif").self_ns +
              StatsFor(spans, self, "serve.answer_lpl").self_ns +
              StatsFor(spans, self, "serve.answer_optimize").self_ns))));
  return r;
}

}  // namespace perfbench
