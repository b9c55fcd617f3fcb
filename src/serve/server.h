// wsnlinkd's transport: one poll() loop over loopback TCP that answers
// what it can at once and hands every miss to the shared pool.
//
// The loop frames newline-delimited request lines out of each
// connection's byte stream (protocol.h ExtractCompleteLines). Each line
// takes the next reply slot in its connection's FIFO as it is read.
// QueryService::Lookup fills the slot at once for a hit, `stats` or a
// parse error. A miss goes, parsed and keyed, to the process-wide pool
// (util::ThreadPool::Shared()), where QueryService::Compute computes,
// stores and persists it; the task then posts its reply and writes a byte
// to the wake pipe. After each poll cycle the loop moves each
// connection's filled prefix of slots to its output, so replies leave in
// arrival order, and a hit never waits for a miss on another connection.
// All protocol/compute smarts live below this layer, which is why the
// test battery can drive QueryService in-process and trust that the
// socket path adds nothing but framing, ordering and limits.
//
// Concurrency model: one loop thread owns every connection, slot and
// queue; pool tasks touch only the service and the finished-miss list.
// At most ServiceOptions::threads misses compute at once (0 = the pool's
// width); the others wait in a FIFO. Misses are named by canonical key:
// `max_inflight` caps the distinct keys queued or computing, and a miss
// past it is answered with a structured busy error. A line whose key is
// already queued or computing, however it is spelled, waits for it and is
// then answered from the cache, so it computes once. The server starts no
// thread of its own: the pool the sweeps use starts with the first miss.
//
// There is no wall clock anywhere in this layer: poll() blocks until
// bytes, a finished miss or a stop wakeup arrive (infinite timeout), and
// responses carry no timestamps. The one bounded wait is the shutdown
// flush, a fixed number of polls with a fixed timeout each, so a peer
// that never reads cannot hold shutdown; it decides only how many reply
// bytes reach the wire, never what they are. Latency measurement belongs
// to the clients and benches.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "serve/query_service.h"

namespace wsnlink::serve {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 picks an ephemeral port (see Port()).
  std::uint16_t port = 0;
  /// Most distinct miss keys queued or computing at once; a miss past it
  /// gets a busy error (counted in ServiceStats::busy_rejected).
  /// Hits, `stats` and parse errors are never rejected.
  std::size_t max_inflight = 64;
  /// Crash-drill hook: once this many replies are queued for the wire,
  /// flush them and die with _Exit(3) — no destructors, no cache flush.
  /// 0 disables. Exercised by the CI crash drill, which restarts the
  /// daemon on the same cache and asserts warm answers.
  std::uint64_t abort_after = 0;
};

/// Line-protocol TCP front end over a QueryService.
class Server {
 public:
  /// Binds and listens on 127.0.0.1 immediately (throws std::runtime_error
  /// on failure). The service must outlive the server.
  Server(QueryService& service, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves option port 0 to the ephemeral choice).
  [[nodiscard]] std::uint16_t Port() const noexcept { return port_; }

  /// Runs the event loop until Stop(). Call from exactly one thread. On
  /// the way out it waits for every miss already handed to the pool,
  /// queues its reply, and flushes what the peers will take.
  void Run();

  /// Signals Run() to drain and return (safe from any thread/handler).
  void Stop();

 private:
  /// Where a reply goes: the slot with sequence number `seq` of the
  /// connection with id `connection`.
  struct SlotRef {
    std::uint64_t connection = 0;
    std::uint64_t seq = 0;
  };

  struct Connection {
    /// Ids grow with accept order, so connections_ stays sorted by id.
    std::uint64_t id = 0;
    /// -1 once closed; the entry is erased at the end of the cycle.
    int fd = -1;
    /// Bytes received but not yet framed into complete lines.
    std::string in;
    /// Reply bytes; those from `out_sent` on are not yet on the socket.
    std::string out;
    std::size_t out_sent = 0;
    /// One slot per request line in arrival order, empty until answered;
    /// the front slot has sequence number `first_seq`.
    std::deque<std::optional<std::string>> slots;
    std::uint64_t first_seq = 0;
    /// True while discarding an overlong (unterminated) request line; the
    /// error reply takes its slot once its newline finally arrives.
    bool discarding = false;
    /// Peer half-closed its write side; the connection stays alive until
    /// every slot is answered and every reply byte written.
    bool eof = false;
  };

  /// A slot waiting for a miss, with its own line to route once it ends.
  struct Waiter {
    SlotRef slot;
    std::string line;
  };

  /// A miss a pool task computed, by canonical key.
  struct Finished {
    std::string key;
    std::string reply;
  };

  void AcceptNew();
  /// Reads from `conn` and gives each complete line a slot; returns false
  /// when the connection must be closed.
  bool ReadFrom(Connection& conn);
  /// Answers the line in `slot` from the cache or makes it wait for its
  /// miss (queued, unless its key is already queued or computing).
  void Route(SlotRef slot, const std::string& line);
  /// Fills `slot`; drops the reply if its connection has closed.
  void Fill(SlotRef slot, std::string reply);
  /// Hands queued misses to the pool while fewer than the limit compute.
  void StartMisses();
  /// Fills the slots of every miss the pool has finished.
  void FinishMisses();
  /// Moves each connection's filled prefix of slots to its output.
  void QueueReplies();
  /// Writes what `conn` takes without blocking; false on a fatal error,
  /// which drops the unsent bytes.
  static bool WriteSome(Connection& conn);
  /// Best-effort flush of every pending reply within a bounded wait
  /// (shutdown and crash-drill paths).
  void FlushAllBlocking();
  void Wake() const;

  QueryService& service_;
  ServerOptions options_;
  int listen_fd_ = -1;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  /// Held open so an accept at the descriptor limit can be shed.
  int reserve_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> stop_{false};

  // Loop-thread state.
  std::uint64_t answered_ = 0;
  std::uint64_t next_connection_id_ = 0;
  std::vector<Connection> connections_;
  /// Each miss queued or computing, by canonical key: the slots waiting
  /// for it, the one that made it first.
  std::map<std::string, std::vector<Waiter>> misses_;
  /// Misses not yet handed to the pool, oldest first.
  std::deque<Miss> queued_;
  /// Misses handed to the pool whose replies FinishMisses has not taken.
  std::size_t computing_ = 0;

  /// Guards finished_; pool tasks notify finished_cv_ under it.
  std::mutex finished_mutex_;
  std::condition_variable finished_cv_;
  std::vector<Finished> finished_;
};

}  // namespace wsnlink::serve
