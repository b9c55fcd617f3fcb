#include "serve/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <utility>
#include <variant>

#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace wsnlink::serve {

namespace {

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// send() that never raises SIGPIPE; returns bytes written or -1.
ssize_t SendSome(int fd, const char* data, std::size_t size) {
#ifdef MSG_NOSIGNAL
  return ::send(fd, data, size, MSG_NOSIGNAL);
#else
  return ::send(fd, data, size, 0);
#endif
}

/// The shutdown flush gives peers at most kFlushRounds polls of
/// kFlushPollMs each to take their replies: about a second in all.
constexpr int kFlushRounds = 10;
constexpr int kFlushPollMs = 100;

/// The instrumented send every write goes through. An armed
/// "serve.send" schedule degrades the selected operation into the failure
/// modes a loaded kernel produces anyway: a short write (exactly one byte
/// reaches the wire) when more than one byte was offered, a clean EINTR
/// when only one was. Either way no bytes are corrupted or reordered, so
/// the response-resumption paths must reassemble replies byte-exactly —
/// which is precisely what the drill asserts.
ssize_t SendChunk(int fd, const char* data, std::size_t size) {
  auto& injector = util::FaultInjector::Global();
  if (injector.Armed() && injector.ShouldFail("serve.send")) {
    if (size > 1) return SendSome(fd, data, 1);
    errno = EINTR;
    return -1;
  }
  return SendSome(fd, data, size);
}

}  // namespace

Server::Server(QueryService& service, ServerOptions options)
    : service_(service), options_(options) {
  if (options_.max_inflight == 0) options_.max_inflight = 1;

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error("serve: cannot create listen socket");
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = ::htonl(INADDR_LOOPBACK);
  addr.sin_port = ::htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot bind 127.0.0.1:" +
                             std::to_string(options_.port) + ": " +
                             std::strerror(errno));
  }
  if (::listen(listen_fd_, 64) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: listen failed");
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ::ntohs(bound.sin_port);
  }
  SetNonBlocking(listen_fd_);

  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("serve: cannot create wakeup pipe");
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  SetNonBlocking(wake_read_fd_);
  // A full pipe already holds a wakeup, so a writer never needs to block.
  SetNonBlocking(wake_write_fd_);
  reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
}

Server::~Server() {
  for (const Connection& conn : connections_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  for (const int fd : {listen_fd_, wake_read_fd_, wake_write_fd_,
                       reserve_fd_}) {
    if (fd >= 0) ::close(fd);
  }
}

void Server::Wake() const {
  const char byte = 'x';
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

void Server::Stop() {
  stop_.store(true, std::memory_order_release);
  if (wake_write_fd_ >= 0) Wake();
}

void Server::AcceptNew() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if ((errno != EMFILE && errno != ENFILE) || reserve_fd_ < 0) return;
      // Out of descriptors: the pending connection would keep the listen
      // fd readable and poll() would spin. Spend the reserve to accept it
      // and close it at once (its peer sees EOF), then take it back.
      ::close(reserve_fd_);
      const int shed = ::accept(listen_fd_, nullptr, nullptr);
      if (shed >= 0) ::close(shed);
      reserve_fd_ = ::open("/dev/null", O_RDONLY | O_CLOEXEC);
      if (shed < 0) return;
      continue;
    }
    SetNonBlocking(fd);
    Connection conn;
    conn.id = next_connection_id_++;
    conn.fd = fd;
    connections_.push_back(std::move(conn));
  }
}

bool Server::ReadFrom(Connection& conn) {
  char buf[4096];
  while (!conn.eof) {
    const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
    if (n == 0) {
      conn.eof = true;
      break;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;
    }
    conn.in.append(buf, static_cast<std::size_t>(n));
    if (static_cast<std::size_t>(n) < sizeof(buf)) break;
  }

  // Overlong unterminated line: drop its bytes now (bounded memory) and
  // answer with a structured error once its terminator shows up.
  if (conn.discarding) {
    const std::size_t nl = conn.in.find('\n');
    if (nl == std::string::npos) {
      conn.in.clear();
    } else {
      conn.in.erase(0, nl + 1);
      conn.discarding = false;
      conn.slots.emplace_back(
          ErrorResponse("request line exceeds " +
                        std::to_string(kMaxRequestBytes) + " bytes"));
    }
  }
  if (!conn.discarding && conn.in.size() > kMaxRequestBytes &&
      conn.in.find('\n') == std::string::npos) {
    conn.discarding = true;
    conn.in.clear();
  }

  for (const std::string& line : ExtractCompleteLines(conn.in)) {
    const SlotRef slot{conn.id, conn.first_seq + conn.slots.size()};
    conn.slots.emplace_back();
    Route(slot, line);
  }
  return true;
}

void Server::Route(SlotRef slot, const std::string& line) {
  std::variant<std::string, Miss> looked_up = service_.Lookup(line);
  if (std::string* reply = std::get_if<std::string>(&looked_up)) {
    Fill(slot, std::move(*reply));
    return;
  }
  Miss& miss = std::get<Miss>(looked_up);
  if (const auto it = misses_.find(miss.key); it != misses_.end()) {
    it->second.push_back({slot, line});
    return;
  }
  if (misses_.size() >= options_.max_inflight) {
    service_.CountBusyRejected(1);
    Fill(slot, ErrorResponse("busy: max inflight exceeded"));
    return;
  }
  misses_.emplace(miss.key, std::vector<Waiter>{{slot, {}}});
  queued_.push_back(std::move(miss));
}

void Server::Fill(SlotRef slot, std::string reply) {
  const auto it = std::lower_bound(
      connections_.begin(), connections_.end(), slot.connection,
      [](const Connection& conn, std::uint64_t id) { return conn.id < id; });
  if (it == connections_.end() || it->id != slot.connection || it->fd < 0) {
    return;
  }
  it->slots[slot.seq - it->first_seq] = std::move(reply);
}

void Server::StartMisses() {
  if (queued_.empty()) return;
  util::ThreadPool& pool = util::ThreadPool::Shared();
  const unsigned threads = service_.Options().threads;
  const std::size_t limit = threads != 0 ? threads : pool.Workers();
  while (computing_ < limit && !queued_.empty()) {
    ++computing_;
    pool.Submit([this, miss = std::move(queued_.front())]() mutable {
      std::string reply = service_.Compute(miss);
      // The task's last touch of the server: Run may return, and the
      // server go, as soon as this lock is released.
      const std::lock_guard<std::mutex> lock(finished_mutex_);
      finished_.push_back({std::move(miss.key), std::move(reply)});
      Wake();
      finished_cv_.notify_one();
    });
    queued_.pop_front();
  }
}

void Server::FinishMisses() {
  std::vector<Finished> finished;
  {
    const std::lock_guard<std::mutex> lock(finished_mutex_);
    finished.swap(finished_);
  }
  for (Finished& done : finished) {
    --computing_;
    auto node = misses_.extract(done.key);
    const std::vector<Waiter>& waiting = node.mapped();
    Fill(waiting.front().slot, std::move(done.reply));
    // Copies that waited are answered from the cache the miss just
    // filled; a failed computation is not cached, so they make a new one.
    for (std::size_t i = 1; i < waiting.size(); ++i) {
      Route(waiting[i].slot, waiting[i].line);
    }
  }
}

void Server::QueueReplies() {
  for (Connection& conn : connections_) {
    while (conn.fd >= 0 && !conn.slots.empty()) {
      const std::optional<std::string>& reply = conn.slots.front();
      if (!reply) break;
      conn.out += *reply;
      conn.out += '\n';
      conn.slots.pop_front();
      ++conn.first_seq;
      ++answered_;
    }
  }
}

bool Server::WriteSome(Connection& conn) {
  while (conn.out_sent < conn.out.size()) {
    const ssize_t n = SendChunk(conn.fd, conn.out.data() + conn.out_sent,
                                conn.out.size() - conn.out_sent);
    if (n > 0) {
      conn.out_sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    // A fatal error: the peer is gone, and so are its unsent bytes.
    conn.out.clear();
    conn.out_sent = 0;
    return false;
  }
  // Drop the sent prefix once it is half the buffer or more: each drop
  // moves no more bytes than it frees, so a backlog drains in linear time,
  // and an empty `out` still means nothing is left to send.
  if (conn.out_sent * 2 >= conn.out.size()) {
    conn.out.erase(0, conn.out_sent);
    conn.out_sent = 0;
  }
  return true;
}

void Server::FlushAllBlocking() {
  std::vector<pollfd> pending;
  for (int round = 0;; ++round) {
    pending.clear();
    for (Connection& conn : connections_) {
      if (conn.fd < 0) continue;
      (void)WriteSome(conn);
      if (!conn.out.empty()) pending.push_back({conn.fd, POLLOUT, 0});
    }
    if (pending.empty() || round == kFlushRounds) return;
    // The bounded wait: a peer that takes nothing for every round is left.
    (void)::poll(pending.data(), pending.size(), kFlushPollMs);
  }
}

void Server::Run() {
  std::vector<pollfd> pfds;

  while (!stop_.load(std::memory_order_acquire)) {
    pfds.clear();
    pfds.push_back({listen_fd_, POLLIN, 0});
    pfds.push_back({wake_read_fd_, POLLIN, 0});
    for (const Connection& conn : connections_) {
      // A half-closed peer has nothing more to read: polling it for input
      // would spin while its misses compute.
      short events = conn.eof ? 0 : POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      pfds.push_back({conn.fd, events, 0});
    }

    // No wall clock: block until traffic, a finished miss or Stop().
    const int ready = ::poll(pfds.data(), pfds.size(), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (pfds[1].revents & POLLIN) {
      char drain[64];
      while (::read(wake_read_fd_, drain, sizeof(drain)) > 0) {
      }
    }
    FinishMisses();
    if (pfds[0].revents & POLLIN) AcceptNew();

    // Give every complete request line a slot: answered now, or a miss.
    // A half-closed peer is polled for nothing, so a hangup means it is
    // gone for good.
    for (std::size_t i = 0; i + 2 < pfds.size(); ++i) {
      Connection& conn = connections_[i];
      const short revents = pfds[i + 2].revents;
      const bool broken = (revents & (POLLERR | POLLNVAL)) != 0 ||
                          (conn.eof && (revents & POLLHUP) != 0);
      if (broken || ((revents & (POLLIN | POLLHUP)) != 0 && !ReadFrom(conn))) {
        ::close(conn.fd);
        conn.fd = -1;
      }
    }
    StartMisses();
    QueueReplies();

    // Write what we can without blocking. A half-closed peer goes once
    // its last reply byte is on the wire.
    for (Connection& conn : connections_) {
      if (conn.fd >= 0 &&
          (!WriteSome(conn) ||
           (conn.eof && conn.slots.empty() && conn.out.empty()))) {
        ::close(conn.fd);
        conn.fd = -1;
      }
    }
    std::erase_if(connections_,
                  [](const Connection& conn) { return conn.fd < 0; });

    // Crash drill: answers are on the wire, now die without cleanup.
    if (options_.abort_after != 0 && answered_ >= options_.abort_after) {
      FlushAllBlocking();
      std::_Exit(3);
    }
  }

  // Pool tasks point into this server: wait for every miss handed over,
  // and answer it. Misses never handed over stay unanswered.
  {
    std::unique_lock<std::mutex> lock(finished_mutex_);
    finished_cv_.wait(lock, [this] { return finished_.size() == computing_; });
  }
  FinishMisses();
  queued_.clear();
  QueueReplies();
  FlushAllBlocking();
}

}  // namespace wsnlink::serve
