// Daemon phase: an in-process serve::Server on a unix socket, an open-loop
// generator that sends each request at its due time, and a direct replay
// of the same frames through TuningService::handle.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <iostream>
#include <stdexcept>

#include "harness.hpp"
#include "serve/protocol.hpp"

namespace perfbench {
namespace {

using ecotune::Json;

/// Writes all of `bytes`; false when the connection failed.
bool send_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n >= 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return false;
    pollfd pfd{fd, POLLOUT, 0};
    if (::poll(&pfd, 1, 1000) <= 0) return false;
  }
  return true;
}

}  // namespace

Daemon::Daemon(const ecotune::serve::ServiceConfig& config,
               const std::string& socket_path)
    : service_(config), server_(service_, socket_path) {
  server_.bind_and_listen();
  thread_ = std::thread([this] {
    try {
      server_.serve();
    } catch (const std::exception& e) {
      std::cerr << "perfbench: daemon stopped: " << e.what() << '\n';
    }
  });
}

Daemon::~Daemon() {
  server_.request_stop();
  thread_.join();
}

std::vector<int> Daemon::connect_clients(int n) const {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  const std::string& path = server_.socket_path();
  if (path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("socket path too long: " + path);
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  std::vector<int> fds;
  for (int i = 0; i < n; ++i) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0 || ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                            sizeof(addr)) != 0) {
      const std::string reason = std::strerror(errno);
      if (fd >= 0) ::close(fd);
      for (const int open_fd : fds) ::close(open_fd);
      throw std::runtime_error("connect(" + path + "): " + reason);
    }
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
    fds.push_back(fd);
  }
  return fds;
}

std::vector<Outcome> drive_open_loop(const std::vector<Request>& requests,
                                     const std::vector<int>& fds,
                                     double grace_s) {
  const std::size_t n = requests.size();
  std::vector<std::string> wire(n);
  for (std::size_t i = 0; i < n; ++i)
    wire[i] = ecotune::serve::encode_frame(requests[i].frame);
  std::vector<ecotune::serve::FrameDecoder> decoders(fds.size());
  std::vector<pollfd> pfds;
  for (const int fd : fds) pfds.push_back(pollfd{fd, POLLIN, 0});

  // Request ids are consecutive, so a reply's id locates its request.
  const double first_id = n == 0 ? 0 : requests[0].frame.at("id").as_number();
  std::vector<Outcome> out(n);
  // A short lead so the first request is not late by the setup above.
  const std::int64_t start = now_ns() + 20'000'000;
  for (std::size_t i = 0; i < n; ++i)
    out[i].due_ns = start + static_cast<std::int64_t>(requests[i].due_ms * 1e6);
  const std::int64_t give_up =
      (n == 0 ? start : out[n - 1].due_ns) +
      static_cast<std::int64_t>(grace_s * 1e9);

  std::size_t next = 0;
  std::size_t answered = 0;
  std::size_t unsendable = 0;
  char buf[65536];
  while (answered + unsendable < n) {
    std::int64_t now = now_ns();
    while (next < n && out[next].due_ns <= now) {
      out[next].sent_ns = now;
      const int conn = requests[next].conn;
      if (!send_all(fds[static_cast<std::size_t>(conn)], wire[next])) {
        out[next].sent_ns = -1;
        ++unsendable;
      }
      ++next;
      now = now_ns();
    }
    if (now >= give_up) break;
    // Busy-poll instead of sleeping until the next due time: waking a
    // sleeping thread can take milliseconds on a shared host, which would
    // make sends late and replies look slow.
    const int ready =
        ::poll(pfds.data(), static_cast<nfds_t>(pfds.size()), 0);
    if (ready <= 0) continue;
    for (std::size_t c = 0; c < pfds.size(); ++c) {
      if (pfds[c].revents == 0) continue;
      for (;;) {
        const ssize_t got = ::recv(pfds[c].fd, buf, sizeof buf, 0);
        if (got <= 0) {
          // Peer closed or failed: stop polling it; its requests stay
          // unanswered and count as failed.
          if (got == 0 || (errno != EAGAIN && errno != EWOULDBLOCK &&
                           errno != EINTR))
            pfds[c].fd = -1;
          break;
        }
        const std::int64_t t = now_ns();
        decoders[c].feed(buf, static_cast<std::size_t>(got));
        while (auto frame = decoders[c].next()) {
          if (!frame->contains("id") || !frame->at("id").is_number()) continue;
          const double id = frame->at("id").as_number() - first_id;
          if (id < 0 || id >= static_cast<double>(n)) continue;
          const auto idx = static_cast<std::size_t>(id);
          if (out[idx].recv_ns >= 0) continue;
          out[idx].recv_ns = t;
          out[idx].response = std::move(*frame);
          ++answered;
        }
      }
    }
  }
  return out;
}

Replay replay(ecotune::serve::TuningService& service,
              const std::vector<Request>& requests) {
  Replay r;
  auto& store = service.session().store();
  for (const auto& req : requests) {
    const ecotune::store::StoreStats before = store.stats();
    const std::int64_t t0 = now_ns();
    const Json response = service.handle(req.frame);
    const std::int64_t t1 = now_ns();
    const ecotune::store::StoreStats after = store.stats();
    r.handle_ms.push_back(ms_between(t0, t1));
    if (after.misses > before.misses)
      r.mode.emplace_back("miss");
    else if (after.hits > before.hits)
      r.mode.emplace_back("hit");
    else
      r.mode.emplace_back("none");
    r.response.push_back(response.dump(-1));
    r.ok.push_back(response.at("ok").as_bool());
  }
  return r;
}

}  // namespace perfbench
