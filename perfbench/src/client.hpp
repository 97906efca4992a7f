// Single-threaded binary-protocol client over a few loopback connections.
//
// Requests are encoded into per-connection buffers and written with one
// send() per connection per flush; responses are read with epoll and split
// with the wire protocol's own FrameParser. The client never blocks on a
// send: what the socket does not take stays buffered for the next flush.
#pragma once

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "serve/net.hpp"
#include "serve/wire.hpp"

namespace perfbench {

class Client {
 public:
  Client() = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  ~Client() { close(); }

  bool connect(std::uint16_t port, int conns, std::string* err) {
    epfd_ = ::epoll_create1(0);
    if (epfd_ < 0) {
      *err = "epoll_create1 failed";
      return false;
    }
    conns_.resize(static_cast<std::size_t>(conns));
    for (int c = 0; c < conns; ++c) {
      Conn& k = conns_[static_cast<std::size_t>(c)];
      k.fd = si::serve::net::connect_tcp("127.0.0.1", port, err);
      if (k.fd < 0) return false;
      si::serve::net::set_nonblocking(k.fd);
      si::serve::net::set_nodelay(k.fd);
      epoll_event ev{};
      ev.events = EPOLLIN;
      ev.data.u32 = static_cast<std::uint32_t>(c);
      ::epoll_ctl(epfd_, EPOLL_CTL_ADD, k.fd, &ev);
    }
    return true;
  }

  void enqueue(int conn, std::uint64_t id, std::uint16_t op, std::uint64_t key,
               std::uint64_t arg) {
    si::serve::wire::encode_request(&conns_[static_cast<std::size_t>(conn)].out,
                                    id, op, key, arg);
  }

  /// Writes as much buffered request data as the sockets take. False on a
  /// broken connection.
  bool flush() {
    for (Conn& k : conns_) {
      while (k.off < k.out.size()) {
        const ssize_t n = ::send(k.fd, k.out.data() + k.off,
                                 k.out.size() - k.off, MSG_NOSIGNAL);
        if (n > 0) {
          k.off += static_cast<std::size_t>(n);
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        return false;
      }
      if (k.off == k.out.size()) {
        k.out.clear();
        k.off = 0;
      }
    }
    return true;
  }

  /// Waits up to `timeout_ms` (0 = just look) for readable connections and
  /// hands every complete response to `on_reply(id, status, value, now)`.
  /// Returns false on a broken connection or an undecodable stream.
  template <typename OnReply>
  bool poll(int timeout_ms, OnReply&& on_reply) {
    epoll_event evs[16];
    const int n = ::epoll_wait(epfd_, evs, 16, timeout_ms);
    if (n < 0) return errno == EINTR;
    char buf[64 * 1024];
    for (int i = 0; i < n; ++i) {
      Conn& k = conns_[evs[i].data.u32];
      for (;;) {
        const ssize_t r = ::recv(k.fd, buf, sizeof(buf), 0);
        if (r > 0) {
          k.in.append(buf, static_cast<std::size_t>(r));
          if (static_cast<std::size_t>(r) < sizeof(buf)) break;
          continue;
        }
        if (r < 0 && errno == EINTR) continue;
        if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        return false;  // EOF or error: the server dropped us
      }
      const double now = si::obs::wall_ns();
      si::serve::wire::FrameView f;
      while (k.in.next(&f)) {
        std::uint64_t id = 0;
        std::uint64_t value = 0;
        int status = 0;
        if (!si::serve::wire::decode_response(f, &id, &status, &value)) {
          return false;
        }
        on_reply(id, status, value, now);
      }
      if (k.in.poisoned()) return false;
    }
    return true;
  }

  void close() {
    for (Conn& k : conns_) {
      if (k.fd >= 0) ::close(k.fd);
      k.fd = -1;
    }
    if (epfd_ >= 0) ::close(epfd_);
    epfd_ = -1;
  }

 private:
  struct Conn {
    int fd = -1;
    std::string out;
    std::size_t off = 0;
    si::serve::wire::FrameParser in;
  };

  int epfd_ = -1;
  std::vector<Conn> conns_;
};

}  // namespace perfbench
