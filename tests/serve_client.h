// Loopback helpers for the tests that drive wsnlinkd's Server: a blocking
// line client and a server running its loop on its own thread.
#pragma once

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "serve/query_service.h"
#include "serve/server.h"

namespace wsnlink::serve_test {

/// Minimal blocking client for the end-to-end tests.
class TestClient {
 public:
  /// Connects to 127.0.0.1:`port`. A positive `receive_buffer` caps the
  /// socket's receive buffer (set before connect, so it bounds the window).
  explicit TestClient(std::uint16_t port, int receive_buffer = 0) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) throw std::runtime_error("test client: socket failed");
    if (receive_buffer > 0) {
      ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &receive_buffer,
                   sizeof(receive_buffer));
    }
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
  ~TestClient() { Close(); }
  TestClient(const TestClient&) = delete;
  TestClient& operator=(const TestClient&) = delete;

  void Send(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd_, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("test client: send failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  /// The next reply line; throws if the connection closes first.
  std::string ReadLine() {
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        std::string line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        return line;
      }
      if (!Receive()) {
        throw std::runtime_error("test client: connection closed");
      }
    }
  }

  /// True when reply bytes are buffered or arrive within `timeout_ms`.
  bool Readable(int timeout_ms) {
    if (!buffer_.empty()) return true;
    pollfd pfd{fd_, POLLIN, 0};
    return ::poll(&pfd, 1, timeout_ms) > 0;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Closes with a reset instead of a FIN, as a crashing peer does.
  void Abort() {
    const linger reset{1, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_LINGER, &reset, sizeof(reset));
    Close();
  }

 private:
  /// Appends what one recv returns; false on EOF or an error.
  bool Receive() {
    char chunk[4096];
    ssize_t n = 0;
    do {
      n = ::recv(fd_, chunk, sizeof(chunk), 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
};

/// A Server whose loop runs on its own thread until destruction.
struct RunningServer {
  RunningServer(serve::QueryService& service, serve::ServerOptions options)
      : server(service, options), thread([this] { server.Run(); }) {}
  ~RunningServer() { Stop(); }
  RunningServer(const RunningServer&) = delete;
  RunningServer& operator=(const RunningServer&) = delete;

  /// Stops the loop and joins its thread (idempotent).
  void Stop() {
    if (!thread.joinable()) return;
    server.Stop();
    thread.join();
  }

  serve::Server server;
  std::thread thread;
};

/// Sends `lines` pipelined in one write over one connection to a fresh
/// server over `service` and returns the replies in order.
inline std::vector<std::string> ServeOverOneConnection(
    serve::QueryService& service, const std::vector<std::string>& lines) {
  RunningServer running(service, serve::ServerOptions{});
  TestClient client(running.server.Port());
  std::string burst;
  for (const std::string& line : lines) burst += line + "\n";
  client.Send(burst);
  std::vector<std::string> replies;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    replies.push_back(client.ReadLine());
  }
  return replies;
}

}  // namespace wsnlink::serve_test
