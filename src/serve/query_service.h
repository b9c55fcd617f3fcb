// The tuning-as-a-service query engine (transport-free).
//
// One QueryService owns the answer path end to end: parse a request line,
// look its canonical key up in the content-addressed ResultCache, compute
// on a miss (what_if runs the link simulator under the request's seed
// contract; optimize runs the Sec. VIII epsilon-constraint search over the
// serving config space), store, reply. Every reply is a pure function of
// its line: bit-identical whichever thread computes it and whether the
// cache was cold or warm (cached payloads are the verbatim bytes the cold
// computation produced).
//
// The answer path is one lookup and one compute. Lookup parses a line and
// answers whatever needs no computation (parse errors, stats, cache hits);
// otherwise it returns the parsed request with its canonical key, the
// Miss. Compute computes, stores and persists a Miss. Answer is the two in
// sequence. The server's poll loop runs Lookup on every line and Compute
// on each miss on the process-wide pool (util::ThreadPool::Shared()), so
// no line is parsed or looked up twice; tests, the bench harness and the
// in-process client call Answer. All three are thread-safe. The TCP layer
// (server.h) adds framing, reply order and the concurrency limits.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <variant>

#include "core/models/model_set.h"
#include "core/opt/config_space.h"
#include "serve/protocol.h"
#include "serve/result_cache.h"

namespace wsnlink::serve {

struct ServiceOptions {
  /// Most misses the server computes at once on the shared pool; 0 = the
  /// pool's width. Answer itself ignores it.
  unsigned threads = 0;
  /// Persistent cache path; empty = in-memory only.
  std::string cache_path;
  /// Persist after this many new cache entries (1 = every store). A
  /// persist appends the new entries' records to the cache file, so 1 is
  /// cheap. The cadence is store-count based, never timer based: the
  /// daemon contains no wall clock.
  std::size_t persist_every = 1;
  /// Entry cap for the result cache (0 = unbounded). When full, the
  /// oldest-inserted entry is evicted first — deterministic FIFO, so two
  /// daemons fed the same request sequence hold the same entries (see
  /// result_cache.h). Applies to warm starts too: a persisted file larger
  /// than the cap keeps the last `cache_max_entries` entries in key order.
  std::size_t cache_max_entries = 0;
};

/// Monotonic service counters (all advisory; the stats verb reports them).
struct ServiceStats {
  std::uint64_t requests = 0;
  std::uint64_t parse_errors = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t computed_what_if = 0;
  std::uint64_t computed_optimize = 0;
  std::uint64_t persist_failures = 0;
  std::uint64_t busy_rejected = 0;
  /// Entries warmed from disk at construction.
  std::uint64_t warm_loaded = 0;
  /// Damaged persisted lines dropped at warm start.
  std::uint64_t corrupt_dropped = 0;
  /// Current in-memory cache size.
  std::uint64_t cache_entries = 0;
};

/// A request Lookup could not answer: the parsed request and its
/// canonical cache key, which names it from the socket to the cache file.
struct Miss {
  Request request;
  std::string key;
};

class QueryService {
 public:
  /// Warms the cache from options.cache_path when set (tolerating any
  /// corruption — see ResultCache::Load).
  explicit QueryService(ServiceOptions options);

  /// Flushes the cache on the way down (best effort).
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Answers one request line: Compute(Lookup(line)) on a miss. Total:
  /// every input yields exactly one single-line reply — an
  /// ok/infeasible/stats payload or a structured error. Never throws, never
  /// blocks on other requests' locks while computing. Thread-safe.
  [[nodiscard]] std::string Answer(const std::string& line);

  /// Parses `line` and returns its reply when that computes nothing (a
  /// parse error, `stats` or a cache hit, counted as a request), else the
  /// Miss, counted by nothing until Compute. Thread-safe.
  [[nodiscard]] std::variant<std::string, Miss> Lookup(const std::string& line);

  /// Counts, computes, stores and persists `miss`. A failed computation is
  /// answered with an error and never cached. Thread-safe.
  [[nodiscard]] std::string Compute(const Miss& miss);

  /// Records `count` misses the server rejected as busy (its max-inflight
  /// cap) so stats reflect them.
  void CountBusyRejected(std::uint64_t count);

  [[nodiscard]] ServiceStats Stats() const;

  /// Persists the cache now if a path is configured (see ResultCache::Save).
  /// Returns false (and counts a persist failure) when the write fails;
  /// the daemon keeps serving from memory.
  bool Flush();

  [[nodiscard]] const ServiceOptions& Options() const noexcept {
    return options_;
  }

 private:
  [[nodiscard]] std::string ComputeWhatIf(const Request& request) const;
  [[nodiscard]] std::string ComputeOptimize(const Request& request) const;
  [[nodiscard]] std::string StatsResponse() const;
  void StoreAndMaybePersist(const std::string& key,
                            const std::string& payload);

  ServiceOptions options_;
  core::models::ModelSet models_;
  ResultCache cache_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> parse_errors_{0};
  std::atomic<std::uint64_t> cache_hits_{0};
  std::atomic<std::uint64_t> cache_misses_{0};
  std::atomic<std::uint64_t> computed_what_if_{0};
  std::atomic<std::uint64_t> computed_optimize_{0};
  std::atomic<std::uint64_t> persist_failures_{0};
  std::atomic<std::uint64_t> busy_rejected_{0};
  std::uint64_t warm_loaded_ = 0;
  std::uint64_t corrupt_dropped_ = 0;

  /// Serializes Save() calls and the stores-since-persist counter.
  std::mutex persist_mutex_;
  std::size_t stores_since_persist_ = 0;
};

/// The serving configuration space for an optimize request: the paper's
/// Table I knob sets restricted to the request's fixed givens (distance,
/// traffic). Exposed so tests and docs state the exact search space.
[[nodiscard]] core::opt::ConfigSpace ServingSpace(double distance_m,
                                                  double pkt_interval_ms);

}  // namespace wsnlink::serve
