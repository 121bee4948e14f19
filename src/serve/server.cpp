#include "serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstring>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/parallel.hpp"

namespace ecotune::serve {
namespace {

/// Write end of the serving Server's self-pipe; the only state a signal
/// handler may touch (lock-free atomic + write(2) are async-signal-safe).
/// One daemon per process: a second concurrent serve() would take over the
/// handlers, which is the ordinary sigaction last-in-wins semantic.
std::atomic<int> g_wake_fd{-1};

void wake_signal_handler(int /*signum*/) {
  const int fd = g_wake_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t ignored = ::write(fd, &byte, 1);
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) (void)::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

std::string errno_text() { return std::strerror(errno); }

}  // namespace

Server::Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Server::Server(TuningService& service, std::string socket_path)
    : service_(service), socket_path_(std::move(socket_path)) {}

Server::~Server() {
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    ::unlink(socket_path_.c_str());
  }
  if (wake_fds_[0] >= 0) ::close(wake_fds_[0]);
  if (wake_fds_[1] >= 0) ::close(wake_fds_[1]);
}

void Server::bind_and_listen() {
  ensure(listen_fd_ < 0, "Server: bind_and_listen() called twice");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  ensure(socket_path_.size() < sizeof(addr.sun_path),
         "Server: socket path too long for AF_UNIX (" +
             std::to_string(socket_path_.size()) + " bytes): " + socket_path_);
  std::memcpy(addr.sun_path, socket_path_.c_str(), socket_path_.size() + 1);

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ensure(fd >= 0, "Server: socket(): " + errno_text());
  // A previous daemon that crashed leaves its socket file behind; binding
  // over it is the expected restart path.
  ::unlink(socket_path_.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    const std::string reason = errno_text();
    ::close(fd);
    throw Error("Server: bind(" + socket_path_ + "): " + reason);
  }
  if (::listen(fd, 128) != 0) {
    const std::string reason = errno_text();
    ::close(fd);
    ::unlink(socket_path_.c_str());
    throw Error("Server: listen(" + socket_path_ + "): " + reason);
  }
  set_nonblocking(fd);
  listen_fd_ = fd;

  if (wake_fds_[0] >= 0) {
    // Bound before: keep the wake pipe (request_stop() may still write to
    // it) but drop stop requests left over from the previous serve().
    char buf[64];
    while (::read(wake_fds_[0], buf, sizeof(buf)) > 0) {
    }
    return;
  }
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0) {
    const std::string reason = errno_text();
    ::close(listen_fd_);
    listen_fd_ = -1;
    ::unlink(socket_path_.c_str());
    throw Error("Server: pipe(): " + reason);
  }
  set_nonblocking(pipe_fds[0]);
  set_nonblocking(pipe_fds[1]);
  wake_fds_[0] = pipe_fds[0];
  wake_fds_[1] = pipe_fds[1];
}

void Server::request_stop() {
  const int fd = wake_fds_[1];
  if (fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t ignored = ::write(fd, &byte, 1);
  }
}

void Server::serve() {
  ensure(listen_fd_ >= 0, "Server::serve: call bind_and_listen() first");
  // Route SIGINT/SIGTERM through the self-pipe for the duration; the old
  // dispositions come back on return so embedding tests do not leak them.
  g_wake_fd.store(wake_fds_[1]);
  struct sigaction sa {};
  sa.sa_handler = &wake_signal_handler;
  sigemptyset(&sa.sa_mask);
  struct sigaction old_int {};
  struct sigaction old_term {};
  ::sigaction(SIGINT, &sa, &old_int);
  ::sigaction(SIGTERM, &sa, &old_term);

  const int workers = resolve_jobs(service_.config().workers);
  log::info("serve") << "listening on " << socket_path_ << " (workers="
                     << workers << ", queue_limit="
                     << service_.config().queue_limit << ")";
  {
    // Task 0 is the listener, tasks 1..workers the request workers; all
    // concurrency routes through common/parallel (no raw threads here).
    ThreadPool pool(workers + 1);
    pool.run(static_cast<std::size_t>(workers) + 1, [this](std::size_t task) {
      // Loops keep exceptions to themselves; anything escaping here would
      // abort the whole pool batch, so turn it into a stop request instead.
      try {
        if (task == 0) {
          io_loop();
        } else {
          worker_loop();
        }
      } catch (const std::exception& e) {
        log::error("serve") << (task == 0 ? "listener" : "worker")
                            << " failed: " << e.what();
        request_stop();
        const MutexLock lock(queue_mutex_);
        draining_ = true;
      }
    });
  }

  ::sigaction(SIGINT, &old_int, nullptr);
  ::sigaction(SIGTERM, &old_term, nullptr);
  g_wake_fd.store(-1);
  ::close(listen_fd_);
  listen_fd_ = -1;
  // The wake pipe stays open until the destructor: request_stop() may run
  // on another thread at any time, even after serve() has returned.
  ::unlink(socket_path_.c_str());
  log::info("serve") << "drained and stopped";
}

void Server::io_loop() {
  std::map<int, std::shared_ptr<Connection>> conns;
  bool stopping = false;
  while (!stopping) {
    std::vector<pollfd> fds;
    fds.reserve(conns.size() + 2);
    fds.push_back(pollfd{wake_fds_[0], POLLIN, 0});
    fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    for (const auto& [fd, conn] : conns) fds.push_back(pollfd{fd, POLLIN, 0});

    const int ready =
        ::poll(fds.data(), static_cast<nfds_t>(fds.size()), -1);
    if (ready < 0) {
      if (errno == EINTR) continue;  // next pass reads the wake byte
      throw Error("Server: poll(): " + errno_text());
    }
    if ((fds[0].revents & POLLIN) != 0) {
      char drain_buf[64];
      while (::read(wake_fds_[0], drain_buf, sizeof drain_buf) > 0) {
      }
      stopping = true;
      continue;
    }
    if ((fds[1].revents & POLLIN) != 0) {
      for (;;) {
        const int client = ::accept(listen_fd_, nullptr, nullptr);
        if (client < 0) break;  // EAGAIN or a transient accept failure
        set_nonblocking(client);
        conns.emplace(client,
                      std::make_shared<Connection>(
                          client, service_.config().max_frame_bytes));
        log::debug("serve") << "accepted connection fd " << client;
      }
    }
    for (std::size_t i = 2; i < fds.size(); ++i) {
      if (fds[i].revents == 0) continue;
      const auto it = conns.find(fds[i].fd);
      if (it == conns.end()) continue;
      if (!service_readable(it->second)) {
        {
          const MutexLock lock(it->second->write_mutex);
          it->second->open = false;
        }
        conns.erase(it);
      }
    }
  }

  // Graceful drain: stop accepting and reading, then let the workers
  // answer everything already queued. Jobs hold their connection alive, so
  // dropping the io references here closes each fd only after its last
  // response went out.
  {
    const MutexLock lock(queue_mutex_);
    draining_ = true;
  }
  queue_cv_.notify_all();
  log::info("serve") << "stop requested; draining "
                     << service_.queue_depth() << " queued request(s)";
  conns.clear();
}

bool Server::service_readable(const std::shared_ptr<Connection>& conn) {
  char buf[4096];
  for (;;) {
    const ssize_t n = ::recv(conn->fd, buf, sizeof buf, 0);
    if (n > 0) {
      conn->decoder.feed(buf, static_cast<std::size_t>(n));
      try {
        while (auto frame = conn->decoder.next())
          submit_frame(conn, std::move(*frame));
      } catch (const Error& e) {
        // Corrupt framing leaves no recoverable message boundary: reject
        // loudly, answer best-effort, and drop the connection.
        log::error("serve") << "dropping connection fd " << conn->fd << ": "
                            << e.what();
        write_frame(*conn, error_response(Json(), "bad_request", e.what()));
        return false;
      }
      continue;
    }
    if (n == 0) {
      if (!conn->decoder.idle()) {
        log::error("serve") << "connection fd " << conn->fd
                            << " closed mid-frame with "
                            << conn->decoder.buffered()
                            << " undecoded byte(s) (truncated frame)";
      }
      return false;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    log::warn("serve") << "recv(fd " << conn->fd << "): " << errno_text();
    return false;
  }
}

void Server::submit_frame(const std::shared_ptr<Connection>& conn,
                          Json frame) {
  // Queue admission only peeks at id/tenant/method/timeout_ms; full request
  // validation (and its error responses) happens in handle() on a worker.
  Json id;
  std::string tenant = "default";
  double timeout_ms = service_.config().default_timeout_ms;
  if (frame.is_object()) {
    if (frame.contains("id")) id = frame.at("id");
    if (frame.contains("tenant") && frame.at("tenant").is_string() &&
        !frame.at("tenant").as_string().empty()) {
      tenant = frame.at("tenant").as_string();
    }
    if (frame.contains("timeout_ms") && frame.at("timeout_ms").is_number() &&
        frame.at("timeout_ms").as_number() > 0) {
      timeout_ms = frame.at("timeout_ms").as_number();
    }
  }
  const std::string method = frame_method(frame);
  Job job;
  job.conn = conn;
  job.frame = std::move(frame);
  job.id = id;
  job.tenant = tenant;
  job.deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double, std::milli>(timeout_ms));
  if (!enqueue(std::move(job))) {
    service_.stats().record(tenant, method, false, 0.0);
    write_frame(*conn,
                error_response(
                    id, "overloaded",
                    "request queue is full (" +
                        std::to_string(service_.config().queue_limit) +
                        " waiting); retry later"));
  }
}

bool Server::enqueue(Job job) {
  {
    const MutexLock lock(queue_mutex_);
    if (draining_ || queue_.size() >= service_.config().queue_limit)
      return false;
    queue_.push_back(std::move(job));
    service_.set_queue_depth(static_cast<long>(queue_.size()));
  }
  queue_cv_.notify_one();
  return true;
}

void Server::worker_loop() {
  for (;;) {
    Job job;
    {
      // Explicit predicate loop around the wait (the common/parallel
      // idiom): the analysis sees every guarded read under the lock.
      MutexLock lock(queue_mutex_);
      while (queue_.empty() && !draining_) queue_cv_.wait(lock);
      if (queue_.empty()) return;  // draining and nothing left to answer
      job = std::move(queue_.front());
      queue_.pop_front();
      service_.set_queue_depth(static_cast<long>(queue_.size()));
    }
    Json response;
    if (std::chrono::steady_clock::now() >= job.deadline) {
      response = error_response(job.id, "timeout",
                                "request expired while queued (deadline "
                                "passed before a worker picked it up)");
      service_.stats().record(job.tenant, frame_method(job.frame), false,
                              0.0);
    } else {
      response = service_.handle(job.frame);
    }
    write_frame(*job.conn, response);
  }
}

void Server::write_frame(Connection& conn, const Json& response) {
  const std::string frame = encode_frame(response);
  const MutexLock lock(conn.write_mutex);
  if (!conn.open) return;
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(conn.fd, frame.data() + sent,
                             frame.size() - sent, MSG_NOSIGNAL);
    if (n >= 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // Nonblocking fd with a slow reader: wait briefly for writability so
      // a burst of responses is not dropped on a full socket buffer.
      pollfd pfd{conn.fd, POLLOUT, 0};
      if (::poll(&pfd, 1, 1000) > 0) continue;
    }
    log::warn("serve") << "send(fd " << conn.fd << "): " << errno_text()
                       << "; dropping response";
    conn.open = false;
    return;
  }
}

}  // namespace ecotune::serve
