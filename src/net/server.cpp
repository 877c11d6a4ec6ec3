#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "obs/trace.hpp"

namespace elect::net {

namespace {

using namespace std::chrono_literals;

/// Which reactor's loop is THIS thread? Lets posts targeted at the
/// reactor we are already running on execute inline instead of taking
/// the inbox + eventfd detour (the common case for handshake replies
/// and protocol errors, which are produced on the read path itself).
thread_local const void* current_reactor_tls = nullptr;

/// Milliseconds of lease left, for the wire (clamped at zero; the
/// sentinel for "never expires" is wire::lease_forever).
std::uint64_t lease_remaining_ms(
    std::chrono::steady_clock::time_point deadline) {
  if (deadline == std::chrono::steady_clock::time_point::max()) {
    return wire::lease_forever;
  }
  const auto left = deadline - std::chrono::steady_clock::now();
  if (left <= std::chrono::steady_clock::duration::zero()) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(left).count());
}

/// Write the whole buffer to a non-blocking socket, parking on POLLOUT
/// when the send buffer is full. Only the HTTP side-channel still uses
/// this (a scrape response is one small buffered write); wire frames go
/// through the per-connection output rings and writev.
bool write_all(int fd, const std::uint8_t* data, std::size_t n,
               const std::atomic<bool>& stopping,
               const std::chrono::steady_clock::time_point* deadline =
                   nullptr) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t wrote = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (wrote > 0) {
      sent += static_cast<std::size_t>(wrote);
      continue;
    }
    if (wrote < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      pollfd pfd{fd, POLLOUT, 0};
      (void)::poll(&pfd, 1, 100);
      if (stopping.load(std::memory_order_relaxed)) return false;
      if (deadline != nullptr &&
          std::chrono::steady_clock::now() >= *deadline) {
        return false;
      }
      continue;
    }
    if (wrote < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

/// Records the server-side `serve` span for a traced request and runs
/// the slow-request check when it ends. Destructor-driven so every
/// early return in serve()/serve_blocking() is covered, and the span
/// exists in the ring *before* the capture formats the trace.
class serve_trace {
 public:
  serve_trace(std::uint64_t trace, wire::op kind) noexcept
      : trace_(trace), kind_(kind),
        start_(trace != 0 ? obs::now_ns() : 0) {}

  serve_trace(const serve_trace&) = delete;
  serve_trace& operator=(const serve_trace&) = delete;

  ~serve_trace() {
    if (trace_ == 0) return;
    const std::uint64_t end = obs::now_ns();
    obs::record_for(trace_, obs::phase::serve, start_, end);
    std::string label = "serve ";
    label += wire::to_string(kind_);
    (void)obs::maybe_capture_slow(
        trace_, std::chrono::nanoseconds(end - start_), label);
  }

 private:
  std::uint64_t trace_;
  wire::op kind_;
  std::uint64_t start_;
};

/// One key_inspection as the JSON object the admin ops return.
/// lease_remaining_ms is null for a non-expiring (or absent) lease.
std::string inspection_json(const svc::key_inspection& k) {
  const std::uint64_t left = lease_remaining_ms(k.lease_deadline);
  obs::series_writer w(obs::series_writer::format::json);
  w.text("key", k.key);
  w.splice("epoch", std::to_string(k.entry.epoch));
  w.splice("leader", std::to_string(k.leader));
  w.text("mode", k.mode);
  w.splice("lease_remaining_ms", k.leader < 0 || left == wire::lease_forever
                                     ? "null"
                                     : std::to_string(left));
  w.splice("attempts_this_epoch", std::to_string(k.attempts_this_epoch));
  w.splice("last_epoch_attempts", std::to_string(k.last_epoch_attempts));
  return w.take();
}

/// Persist a snapshot via write-to-temp + rename, so a crash mid-write
/// never leaves a torn file where a restore expects a whole one.
bool write_snapshot_file(const std::string& path,
                         const std::vector<std::uint8_t>& bytes) {
  const std::string tmp = path + ".tmp";
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return false;
  const bool wrote =
      bytes.empty() ||
      std::fwrite(bytes.data(), 1, bytes.size(), file) == bytes.size();
  const bool flushed = std::fflush(file) == 0;
  const bool closed = std::fclose(file) == 0;
  if (!(wrote && flushed && closed)) {
    (void)std::remove(tmp.c_str());
    return false;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    (void)std::remove(tmp.c_str());
    return false;
  }
  return true;
}

/// Resolve the reactor count: explicit config wins, then the
/// ELECT_REACTORS environment variable (what CI uses to force 4 under
/// the sanitizers), then hardware concurrency clamped to a sane fleet.
int resolve_reactor_count(int configured) {
  if (configured > 0) return std::clamp(configured, 1, 64);
  if (const char* env = std::getenv("ELECT_REACTORS")) {
    const int n = std::atoi(env);
    if (n > 0) return std::clamp(n, 1, 64);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp(static_cast<int>(hw == 0 ? 1 : hw), 1, 16);
}

/// One bound, listening, non-blocking socket. With `reuseport`, failure
/// to set SO_REUSEPORT is a failure (the caller falls back to the
/// single-listener path rather than binding a non-sharded socket into a
/// sharded group).
int make_listener(const std::string& address, std::uint16_t port,
                  bool reuseport, std::uint16_t* bound_port) {
  const int fd =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (reuseport &&
      ::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
    ::close(fd);
    return -1;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, address.c_str(), &addr.sin_addr) != 1 ||
      ::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 256) != 0) {
    ::close(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t bound_len = sizeof bound;
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
        0) {
      *bound_port = ntohs(bound.sin_port);
    }
  }
  return fd;
}

}  // namespace

void net_report::describe(obs::series_writer& w) const {
  w.counter("connections_accepted", "Connections accepted.",
            connections_accepted);
  w.gauge("connections_active", "Open client connections.",
          connections_active);
  w.counter("connections_refused", "Connections refused at the cap.",
            connections_refused);
  w.counter("frames_in", "Frames received.", frames_in);
  w.counter("frames_out", "Frames sent.", frames_out);
  w.counter("bytes_in", "Bytes received.", bytes_in);
  w.counter("bytes_out", "Bytes sent.", bytes_out);
  w.counter("requests", "Wire requests decoded.", requests);
  w.counter("dispatch_batches",
            "Read passes that dispatched at least one request.",
            dispatch_batches);
  w.counter("backpressure_pauses",
            "Times a connection stopped being read at its in-flight cap.",
            backpressure_pauses);
  w.counter("busy_rejections", "Requests answered busy at the waiter cap.",
            busy_rejections);
  w.counter("protocol_errors", "Connections killed for protocol violations.",
            protocol_errors);
  w.counter("disconnect_reclaims", "Leases reclaimed from dead connections.",
            disconnect_reclaims);
  w.counter("watch_subscriptions", "Watch subscriptions accepted.",
            watch_subscriptions);
  w.counter("events_pushed", "Watch event frames delivered.", events_pushed);
  w.counter("events_dropped", "Watch event frames dropped.", events_dropped);
  w.gauge("reactors", "Configured reactor count.", reactors);
  w.flag("reuseport", "Every reactor accepts on its own SO_REUSEPORT socket.",
         reuseport);
  w.counter("writev_calls", "writev flush calls.", writev_calls);
  w.counter("frames_flushed", "Frames flushed via writev.", frames_flushed);
  w.counter("reactor_wakeups", "Cross-thread eventfd wakeups.",
            reactor_wakeups);
  w.rows(
      {.key = "per_reactor", .label = "reactor", .id_key = "index"},
      per_reactor.size(),
      [&](std::size_t i) { return std::to_string(per_reactor[i].index); },
      [&](std::size_t i) {
        const reactor_stat& s = per_reactor[i];
        w.gauge("connections", "Open connections per reactor.",
                s.connections);
        w.counter("accepted", "Connections accepted or adopted per reactor.",
                  s.accepted);
        w.counter("wakeups", "Eventfd wakeups per reactor.", s.wakeups);
        w.counter("writev_calls", "writev flush calls per reactor.",
                  s.writev_calls);
        w.counter("frames_flushed", "Frames flushed per reactor.",
                  s.frames_flushed);
        w.counter("drain_batches",
                  "Output flush passes that wrote at least one frame, per "
                  "reactor; frames_flushed / drain_batches is frames per "
                  "pass.",
                  s.drain_batches);
        w.counter("requests", "Requests decoded per reactor.", s.requests);
      });
}

std::string net_report::to_json() const {
  obs::series_writer w(obs::series_writer::format::json);
  describe(w);
  return w.take();
}

server::connection::~connection() {
  if (fd >= 0) ::close(fd);
}

server::server(svc::service& service, server_config config)
    : service_(service), config_(std::move(config)) {
  ELECT_CHECK(config_.executors >= 1);
  ELECT_CHECK(config_.max_waiters >= 1);
  ELECT_CHECK(config_.max_inflight_per_connection >= 1);

  const int n = resolve_reactor_count(config_.reactors);
  reactors_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    auto r = std::make_unique<reactor>();
    r->owner = this;
    r->index = i;
    reactors_.push_back(std::move(r));
  }

  const auto fail = [this] {
    for (auto& re : reactors_) {
      if (re->epoll_fd >= 0) ::close(re->epoll_fd);
      if (re->wake_fd >= 0) ::close(re->wake_fd);
      if (re->listen_fd >= 0) ::close(re->listen_fd);
      re->epoll_fd = re->wake_fd = re->listen_fd = -1;
    }
    if (http_listen_fd_ >= 0) {
      ::close(http_listen_fd_);
      http_listen_fd_ = -1;
    }
  };

  // The accept path: one SO_REUSEPORT listener per reactor when we can
  // (the kernel spreads incoming connections across the group), a
  // single listener on reactor 0 dealing round-robin when we can't.
  bool sharded = config_.reuseport && n > 1;
  if (sharded) {
    std::uint16_t bound = 0;
    const int first =
        make_listener(config_.bind_address, config_.port, true, &bound);
    if (first < 0) {
      sharded = false;
    } else {
      reactors_[0]->listen_fd = first;
      port_ = bound;
      for (int i = 1; i < n && sharded; ++i) {
        const int fd = make_listener(config_.bind_address, port_, true,
                                     nullptr);
        if (fd < 0) {
          sharded = false;
        } else {
          reactors_[i]->listen_fd = fd;
        }
      }
      if (!sharded) {
        // A partial group is worse than no group: close everything and
        // fall back to the single-listener path below.
        for (auto& re : reactors_) {
          if (re->listen_fd >= 0) ::close(re->listen_fd);
          re->listen_fd = -1;
        }
        port_ = 0;
      }
    }
  }
  if (!sharded) {
    const int fd =
        make_listener(config_.bind_address, config_.port, false, &port_);
    if (fd < 0) return;  // listening_ stays false: bind failed
    reactors_[0]->listen_fd = fd;
  }
  reuseport_active_ = sharded;

  for (auto& re : reactors_) {
    re->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    re->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (re->epoll_fd < 0 || re->wake_fd < 0) {
      fail();
      return;
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = re->wake_fd;
    if (::epoll_ctl(re->epoll_fd, EPOLL_CTL_ADD, re->wake_fd, &ev) != 0) {
      fail();
      return;
    }
    if (re->listen_fd >= 0) {
      ev.data.fd = re->listen_fd;
      if (::epoll_ctl(re->epoll_fd, EPOLL_CTL_ADD, re->listen_fd, &ev) != 0) {
        fail();
        return;
      }
    }
  }

  if (config_.http_enabled) {
    // The HTTP side-channel rides reactor 0 — a scrape is a few hundred
    // bytes each way, not worth a listener per reactor. Failure to bind
    // degrades to "no HTTP" (http_listening() false) rather than taking
    // the wire listeners down with it.
    const int one = 1;
    http_listen_fd_ =
        ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (http_listen_fd_ >= 0) {
      (void)::setsockopt(http_listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one,
                         sizeof one);
      sockaddr_in haddr{};
      haddr.sin_family = AF_INET;
      haddr.sin_port = htons(config_.http_port);
      if (::inet_pton(AF_INET, config_.bind_address.c_str(),
                      &haddr.sin_addr) != 1 ||
          ::bind(http_listen_fd_, reinterpret_cast<const sockaddr*>(&haddr),
                 sizeof haddr) != 0 ||
          ::listen(http_listen_fd_, 64) != 0) {
        ::close(http_listen_fd_);
        http_listen_fd_ = -1;
      } else {
        sockaddr_in hbound{};
        socklen_t hbound_len = sizeof hbound;
        if (::getsockname(http_listen_fd_,
                          reinterpret_cast<sockaddr*>(&hbound),
                          &hbound_len) == 0) {
          http_port_ = ntohs(hbound.sin_port);
        }
        epoll_event hev{};
        hev.events = EPOLLIN;
        hev.data.fd = http_listen_fd_;
        if (::epoll_ctl(reactors_[0]->epoll_fd, EPOLL_CTL_ADD,
                        http_listen_fd_, &hev) != 0) {
          ::close(http_listen_fd_);
          http_listen_fd_ = -1;
          http_port_ = 0;
        }
      }
    }
  }

  listening_ = true;
  for (auto& re : reactors_) {
    reactor* rp = re.get();
    re->thread = std::thread([this, rp] { reactor_main(*rp); });
  }
  executors_.reserve(static_cast<std::size_t>(config_.executors));
  for (int i = 0; i < config_.executors; ++i) {
    executors_.emplace_back([this] { executor_main(); });
  }
}

server::~server() { stop(); }

void server::stop() {
  if (stopping_.exchange(true)) return;
  for (auto& re : reactors_) {
    if (re->thread.joinable()) {
      wake(*re);
      re->thread.join();
    }
  }
  // Reactor teardown finished every connection, so queued work and
  // parked waiters now see closed connections and drain fast.
  queue_cv_.notify_all();
  for (auto& t : executors_) {
    if (t.joinable()) t.join();
  }
  {
    std::unique_lock<std::mutex> lock(waiter_mutex_);
    waiter_cv_.wait(lock, [this] { return active_waiters_ == 0; });
  }
  for (auto& re : reactors_) {
    {
      const std::lock_guard<std::mutex> lock(re->inbox_mutex);
      for (const int fd : re->adopt_inbox) ::close(fd);
      re->adopt_inbox.clear();
      re->flush_inbox.clear();
      re->resume_inbox.clear();
    }
    if (re->epoll_fd >= 0) ::close(re->epoll_fd);
    if (re->wake_fd >= 0) ::close(re->wake_fd);
    if (re->listen_fd >= 0) ::close(re->listen_fd);
    re->epoll_fd = re->wake_fd = re->listen_fd = -1;
  }
  if (http_listen_fd_ >= 0) {
    ::close(http_listen_fd_);
    http_listen_fd_ = -1;
  }
}

// ---------------------------------------------------------------------
// The reactor loop: accept, drain-and-dispatch, flush, teardown.

void server::reactor_main(reactor& r) {
  current_reactor_tls = &r;
  epoll_event events[64];
  while (!stopping_.load(std::memory_order_relaxed)) {
    const int ready =
        ::epoll_wait(r.epoll_fd, events, 64, next_stall_timeout_ms(r));
    if (ready < 0) {
      if (errno == EINTR) continue;
      break;
    }
    for (int i = 0; i < ready; ++i) {
      const int fd = events[i].data.fd;
      const std::uint32_t mask = events[i].events;
      if (fd == r.wake_fd) {
        std::uint64_t drained = 0;
        (void)!::read(r.wake_fd, &drained, sizeof drained);
        r.wakeups.fetch_add(1, std::memory_order_relaxed);
        process_inbox(r);
        continue;
      }
      if (fd == r.listen_fd) {
        accept_ready(r);
        continue;
      }
      if (r.index == 0 && fd == http_listen_fd_) {
        http_accept_ready(r);
        continue;
      }
      const auto it = r.connections.find(fd);
      if (it != r.connections.end()) {
        // Copy: the handlers may finish the connection and erase it.
        const connection_ptr conn = it->second;
        if ((mask & EPOLLOUT) != 0) flush_connection(r, conn);
        if ((mask & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR)) != 0 &&
            r.connections.count(fd) != 0) {
          read_ready(r, conn);
        }
        continue;
      }
      if (r.index == 0 && http_conns_.count(fd) != 0) http_read_ready(r, fd);
    }
    fire_stalls(r);
  }
  // Teardown: finish every connection (disconnect-on-close included)
  // while the map still owns them, and close sockets dealt to us that
  // we never adopted.
  {
    const std::lock_guard<std::mutex> lock(r.inbox_mutex);
    for (const int fd : r.adopt_inbox) ::close(fd);
    r.adopt_inbox.clear();
    r.flush_inbox.clear();
    r.resume_inbox.clear();
  }
  std::vector<connection_ptr> remaining;
  remaining.reserve(r.connections.size());
  for (const auto& [fd, conn] : r.connections) remaining.push_back(conn);
  for (const auto& conn : remaining) finish_connection(r, conn);
  if (r.index == 0) {
    for (const auto& [fd, buffered] : http_conns_) ::close(fd);
    http_conns_.clear();
  }
}

void server::process_inbox(reactor& r) {
  std::vector<int> adopts;
  std::vector<connection_ptr> resumes;
  std::vector<connection_ptr> flushes;
  {
    const std::lock_guard<std::mutex> lock(r.inbox_mutex);
    adopts.swap(r.adopt_inbox);
    resumes.swap(r.resume_inbox);
    flushes.swap(r.flush_inbox);
    r.wake_pending = false;
  }
  for (const int fd : adopts) adopt_connection(r, fd);
  for (const auto& conn : resumes) handle_resume(r, conn);
  for (const auto& conn : flushes) flush_connection(r, conn);
}

void server::wake(reactor& r) {
  const std::uint64_t one = 1;
  (void)!::write(r.wake_fd, &one, sizeof one);
}

void server::accept_ready(reactor& r) {
  for (;;) {
    const int fd =
        ::accept4(r.listen_fd, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // EAGAIN or a transient accept error: wait for the next event
    }
    if (stopping_.load(std::memory_order_relaxed) ||
        connections_active_.load(std::memory_order_relaxed) >=
            static_cast<std::uint64_t>(config_.max_connections)) {
      counters_.connections_refused.fetch_add(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    if (reuseport_active_ || reactors_.size() == 1) {
      adopt_connection(r, fd);
      continue;
    }
    // Single-listener fallback: reactor 0 owns the only listener and
    // deals accepted sockets round-robin across the fleet. next_adopter_
    // starts at 1, so spreading begins with the very first connection.
    reactor& target = *reactors_[next_adopter_++ % reactors_.size()];
    if (&target == &r) {
      adopt_connection(r, fd);
      continue;
    }
    bool kick = false;
    {
      const std::lock_guard<std::mutex> lock(target.inbox_mutex);
      target.adopt_inbox.push_back(fd);
      if (!target.wake_pending) {
        target.wake_pending = true;
        kick = true;
      }
    }
    if (kick) wake(target);
  }
}

void server::adopt_connection(reactor& r, int fd) {
  if (stopping_.load(std::memory_order_relaxed)) {
    ::close(fd);
    return;
  }
  auto conn = std::make_shared<connection>(
      fd, next_connection_id_.fetch_add(1, std::memory_order_relaxed), r);
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP;
  ev.data.fd = fd;
  if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
    return;  // conn destructor closes the fd
  }
  r.connections.emplace(fd, std::move(conn));
  r.accepted.fetch_add(1, std::memory_order_relaxed);
  r.active.fetch_add(1, std::memory_order_relaxed);
  counters_.connections_accepted.fetch_add(1, std::memory_order_relaxed);
  connections_active_.fetch_add(1, std::memory_order_relaxed);
}

void server::read_ready(reactor& r, const connection_ptr& conn) {
  // Drain the socket in bounded bites, decoding and dispatching after
  // each recv. Draining straight to EAGAIN before ever consulting the
  // in-flight cap would let a client that pre-filled the kernel buffer
  // blow arbitrarily far past max_inflight_per_connection; this way the
  // overshoot is bounded by the frames of one 64 KiB read, and the rest
  // stays in the kernel buffer (level-triggered EPOLLIN re-fires once
  // the pause lifts).
  std::uint8_t buffer[64 * 1024];
  bool dead = conn->closed.load(std::memory_order_relaxed);
  bool drained = dead;
  std::vector<pending> batch;
  while (!dead) {
    const ssize_t got = ::recv(conn->fd, buffer, sizeof buffer, 0);
    if (got > 0) {
      counters_.bytes_in.fetch_add(static_cast<std::uint64_t>(got),
                                   std::memory_order_relaxed);
      if (!conn->reader.feed(buffer, static_cast<std::size_t>(got))) {
        protocol_error(conn, 0);
        dead = true;
      }
    } else if (got == 0) {
      dead = true;  // orderly EOF — the disconnect-on-close trigger
      drained = true;
    } else if (errno == EINTR) {
      continue;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      drained = true;
    } else {
      dead = true;  // reset / error — same as a crash
      drained = true;
    }

    // Decode everything this bite completed. Dead connections still
    // parse: requests already received alongside an EOF are served (the
    // client pipelined then closed; its last responses are moot, but a
    // won lease must be reclaimed — see serve/serve_blocking).
    while (auto frame = conn->reader.next()) {
      counters_.frames_in.fetch_add(1, std::memory_order_relaxed);
      auto req = wire::decode_request(*frame);
      if (!req) {
        protocol_error(conn, 0);
        dead = true;
        drained = true;
        break;
      }
      if (!conn->session) {
        handle_handshake(conn, *req);
        if (!conn->session) {
          dead = true;
          drained = true;
          break;
        }
        continue;
      }
      if (req->kind == wire::op::hello) {
        protocol_error(conn, req->id);
        dead = true;
        drained = true;
        break;
      }
      counters_.requests.fetch_add(1, std::memory_order_relaxed);
      r.requests.fetch_add(1, std::memory_order_relaxed);
      conn->in_flight.fetch_add(1, std::memory_order_acq_rel);
      if (req->kind == wire::op::acquire ||
          req->kind == wire::op::try_acquire_for) {
        dispatch(conn, std::move(*req));  // waiter spawn / busy
      } else {
        batch.push_back(pending{conn, std::move(*req)});
      }
    }
    if (drained) break;
    // At the cap: stop reading; maybe_pause below parks the socket.
    if (conn->in_flight.load(std::memory_order_acquire) >=
        config_.max_inflight_per_connection) {
      break;
    }
  }

  if (!batch.empty()) {
    counters_.dispatch_batches.fetch_add(1, std::memory_order_relaxed);
    {
      const std::lock_guard<std::mutex> lock(queue_mutex_);
      for (auto& p : batch) queue_.push_back(std::move(p));
    }
    if (batch.size() > 1) {
      queue_cv_.notify_all();
    } else {
      queue_cv_.notify_one();
    }
  }

  if (dead) {
    finish_connection(r, conn);
  } else {
    maybe_pause(r, conn);
  }
}

// Blocking ops only: spawn a bounded waiter thread, or answer busy.
void server::dispatch(const connection_ptr& conn, wire::request req) {
  {
    const std::lock_guard<std::mutex> lock(waiter_mutex_);
    if (active_waiters_ < config_.max_waiters &&
        !stopping_.load(std::memory_order_relaxed)) {
      ++active_waiters_;
      pending p{conn, std::move(req)};
      // Detached, but stop() blocks on active_waiters_ reaching zero,
      // so no waiter outlives the server.
      std::thread([this, p = std::move(p)] {
        serve_blocking(p);
        // Notify under the mutex: stop() waits on this cv with the
        // same mutex and destroys it right after the count hits zero,
        // so a notify outside the lock could land on a dead cv.
        const std::lock_guard<std::mutex> inner(waiter_mutex_);
        --active_waiters_;
        waiter_cv_.notify_all();
      }).detach();
      return;
    }
  }
  counters_.busy_rejections.fetch_add(1, std::memory_order_relaxed);
  wire::response busy;
  busy.id = req.id;
  busy.kind = req.kind;
  busy.result = wire::status::busy;
  send_response(conn, busy);
  complete(conn);
}

void server::handle_handshake(const connection_ptr& conn,
                              const wire::request& req) {
  if (!wire::hello_version_ok(req)) {
    protocol_error(conn, req.id);
    return;  // session stays unset; the caller closes the connection
  }
  auto session = service_.try_connect();
  if (!session.has_value()) {
    // The service stopped under us: answer once so the client fails
    // with "rejected" instead of a bare connection reset.
    wire::response refused = wire::make_hello_response(0);
    refused.id = req.id;
    refused.result = wire::status::rejected;
    send_response(conn, refused);
    return;
  }
  conn->session.emplace(*session);
  wire::response hello =
      wire::make_hello_response(static_cast<std::uint64_t>(session->id()));
  hello.id = req.id;
  send_response(conn, hello);
}

void server::protocol_error(const connection_ptr& conn,
                            std::uint64_t request_id) {
  counters_.protocol_errors.fetch_add(1, std::memory_order_relaxed);
  wire::response r;
  r.id = request_id;
  r.result = wire::status::bad_request;
  // Best effort: the frame lands in the output ring and the final flush
  // in finish_connection pushes it at the raw socket before close.
  send_response(conn, r);
}

// ---------------------------------------------------------------------
// Request execution.

void server::executor_main() {
  for (;;) {
    pending p;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load(std::memory_order_relaxed) || !queue_.empty();
      });
      if (queue_.empty()) return;  // stopping and drained
      p = std::move(queue_.front());
      queue_.pop_front();
    }
    serve(p);
  }
}

wire::response server::acquire_response(const wire::request& req,
                                        const svc::acquire_result& result) {
  wire::response r;
  r.id = req.id;
  r.kind = req.kind;
  r.epoch = result.epoch;
  if (result.rejected) {
    // A cluster primary that lost its quorum fails the commit gate:
    // the grant was applied locally but never confirmed — the client
    // must treat it as a dead connection, not a clean loss.
    r.result = result.connection_lost ? wire::status::connection_lost
                                      : wire::status::rejected;
  } else if (result.won) {
    r.result = wire::status::ok;
    r.flags |= wire::flag_won;
    if (result.fast_path) r.flags |= wire::flag_fast_path;
    r.lease_remaining_ms = lease_remaining_ms(result.lease_deadline);
  } else if (result.timed_out) {
    r.result = wire::status::timed_out;
  } else {
    r.result = wire::status::lost;
  }
  return r;
}

void server::serve(const pending& p) {
  svc::service::session& session = *p.conn->session;
  const wire::request& req = p.req;
  // The v3 frame carried the client's trace id: serve under it so the
  // service-layer spans (fast path, queue wait, election, lease ops)
  // land in the same trace the client minted.
  const obs::trace_scope trace(req.trace_id);
  const serve_trace timing(req.trace_id, req.kind);
  wire::response r;
  r.id = req.id;
  r.kind = req.kind;
  if (config_.cluster.enabled()) {
    switch (req.kind) {
      case wire::op::peer_vote:
      case wire::op::peer_append:
      case wire::op::peer_snapshot:
        // Replication traffic: straight to the repl node, no session
        // semantics involved.
        send_response(p.conn, config_.cluster.peer(req));
        complete(p.conn);
        return;
      case wire::op::try_acquire:
      case wire::op::release:
      case wire::op::release_fenced:
      case wire::op::renew:
      case wire::op::admin_force_release:
        // Mutations only run where the replicated log is written.
        // (disconnect is deliberately absent: a follower session holds
        // nothing, so serving it locally is correct — and the implicit
        // disconnect on socket close has no one to redirect anyway.)
        if (!config_.cluster.is_primary()) {
          r.result = wire::status::not_primary;
          r.body = config_.cluster.primary_hint();
          send_response(p.conn, r);
          complete(p.conn);
          return;
        }
        break;
      default:
        break;
    }
  }
  switch (req.kind) {
    case wire::op::try_acquire: {
      const svc::acquire_result result = session.try_acquire(req.key);
      if (result.won &&
          p.conn->closed.load(std::memory_order_relaxed)) {
        // The request rode in alongside the connection's EOF (or the
        // close raced us): disconnect-on-close already ran, so this
        // fresh win has nobody behind it — hand it straight back
        // instead of orphaning the key. The shard mutex orders the
        // win against finish_connection's reclaim scan, so a win
        // the scan could not see always observes closed here.
        (void)session.reclaim(req.key, result.epoch);
        counters_.disconnect_reclaims.fetch_add(1,
                                                std::memory_order_relaxed);
        complete(p.conn);
        return;
      }
      r = acquire_response(req, result);
      break;
    }
    case wire::op::release:
      r.result = wire::from_lease_status(session.release(req.key));
      break;
    case wire::op::release_fenced:
      r.result =
          wire::from_lease_status(session.release(req.key, req.epoch));
      break;
    case wire::op::renew:
      r.result = wire::from_lease_status(session.renew(req.key, req.epoch));
      if (r.result == wire::status::ok) {
        // A successful renew re-arms the full TTL; telling the client
        // the refreshed budget is what lets a remote auto-renewing
        // lease (api::lease) schedule its next heartbeat without a
        // second round-trip.
        const std::uint64_t ttl_ms = service_.config().lease_ttl_ms;
        r.lease_remaining_ms = ttl_ms == 0 ? wire::lease_forever : ttl_ms;
      }
      break;
    case wire::op::watch:
      serve_watch(p, r);
      break;
    case wire::op::unwatch:
      serve_unwatch(p, r);
      break;
    case wire::op::disconnect:
      r.epoch = session.disconnect();
      r.result = wire::status::ok;
      break;
    case wire::op::metrics:
      r.body = report_json();
      r.result = wire::status::ok;
      // A body the frame cap cannot carry would poison the client's
      // deframer and kill the whole connection; fail just this call.
      if (r.body.size() > wire::max_frame_bytes - 64) {
        r.body.clear();
        r.result = wire::status::bad_request;
      }
      break;
    case wire::op::admin_cluster_status:
      // Answered by every member, primary or not, and NOT gated by
      // enable_admin: a client or operator locating the primary must
      // not need force-release rights to ask who leads.
      if (config_.cluster.status_json) {
        r.body = config_.cluster.status_json();
      } else {
        obs::series_writer w(obs::series_writer::format::json);
        w.text("role", "standalone");
        r.body = w.take();
      }
      r.result = wire::status::ok;
      break;
    case wire::op::admin_list:
    case wire::op::admin_inspect:
    case wire::op::admin_force_release:
    case wire::op::admin_snapshot:
    case wire::op::admin_commands:
      serve_admin(p, r);
      break;
    default:
      r.result = wire::status::bad_request;
      break;
  }
  send_response(p.conn, r);
  complete(p.conn);
}

// ---------------------------------------------------------------------
// The watch router. One hub subscription per watched key; fanout_event
// fans the hub's callback to every wire subscriber of that key.
//
// Lock order: router_mutex_ → out_mutex → pause_mutex, never reversed.
// service_.watch (hub add) is brief and safe anywhere; service_.unwatch
// (hub remove) can block until in-flight deliveries finish, and a
// delivery takes router_mutex_ — so unwatch is NEVER called with
// router_mutex_ held.

void server::serve_watch(const pending& p, wire::response& r) {
  const connection_ptr& conn = p.conn;
  const std::string& key = p.req.key;
  std::uint64_t id = 0;
  bool need_subscribe = false;
  {
    const std::lock_guard<std::mutex> lock(router_mutex_);
    // closed is set before finish_connection takes this lock to collect
    // watch ids, so either finish sees the id we add here, or we see
    // closed and refuse — never a leaked registration.
    if (conn->closed.load(std::memory_order_relaxed)) {
      r.result = wire::status::rejected;
      return;
    }
    if (conn->watch_ids.size() >=
        static_cast<std::size_t>(config_.max_watches_per_connection)) {
      counters_.busy_rejections.fetch_add(1, std::memory_order_relaxed);
      r.result = wire::status::busy;
      return;
    }
    id = next_router_id_++;
    watch_key_state& ks = router_by_key_[key];
    ks.ids.push_back(id);
    router_by_id_.emplace(id, watch_target{key, conn});
    conn->watch_ids.push_back(id);
    if (ks.hub_id == 0 && !ks.subscribing) {
      ks.subscribing = true;
      need_subscribe = true;
    }
  }
  if (need_subscribe) {
    // First watcher on this key: register the single hub subscription
    // whose callback serves every wire subscriber of the key.
    const std::uint64_t hub_id = service_.watch(
        key, [this](const svc::watch_event& e) { fanout_event(e); });
    std::uint64_t drop_hub = 0;
    bool failed = false;
    {
      const std::lock_guard<std::mutex> lock(router_mutex_);
      // The entry cannot vanish while `subscribing` is set (unwatch and
      // finish_connection leave it for us), so the lookup holds.
      const auto kit = router_by_key_.find(key);
      kit->second.subscribing = false;
      if (hub_id != 0 && !kit->second.ids.empty()) {
        kit->second.hub_id = hub_id;
      } else {
        if (hub_id == 0) {
          // Service stopped under us: roll back this registration.
          failed = true;
          router_by_id_.erase(id);
          auto& ids = kit->second.ids;
          ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
          auto& wids = conn->watch_ids;
          wids.erase(std::remove(wids.begin(), wids.end(), id), wids.end());
        } else {
          drop_hub = hub_id;  // everyone left while we registered
        }
        if (kit->second.ids.empty() && kit->second.hub_id == 0) {
          router_by_key_.erase(kit);
        }
      }
    }
    if (drop_hub != 0) service_.unwatch(drop_hub);
    if (failed) {
      r.result = wire::status::rejected;
      return;
    }
  }
  counters_.watch_subscriptions.fetch_add(1, std::memory_order_relaxed);
  r.result = wire::status::ok;
  r.epoch = id;  // the handle the client passes back to unwatch
}

void server::serve_unwatch(const pending& p, wire::response& r) {
  const std::uint64_t id = p.req.epoch;
  std::uint64_t drop_hub = 0;
  {
    const std::lock_guard<std::mutex> lock(router_mutex_);
    const auto idit = router_by_id_.find(id);
    // Only ids this connection registered are cancelled — an unknown or
    // foreign id is a harmless no-op, not a protocol violation.
    if (idit != router_by_id_.end() && idit->second.conn == p.conn) {
      const std::string key = idit->second.key;
      router_by_id_.erase(idit);
      auto& wids = p.conn->watch_ids;
      wids.erase(std::remove(wids.begin(), wids.end(), id), wids.end());
      const auto kit = router_by_key_.find(key);
      if (kit != router_by_key_.end()) {
        auto& ids = kit->second.ids;
        ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
        if (ids.empty() && !kit->second.subscribing) {
          drop_hub = kit->second.hub_id;
          router_by_key_.erase(kit);
        }
      }
    }
  }
  if (drop_hub != 0) service_.unwatch(drop_hub);
  r.result = wire::status::ok;
}

void server::fanout_event(const svc::watch_event& e) {
  if (stopping_.load(std::memory_order_relaxed)) return;
  // The fast lane: encode the event ONCE into a shared immutable
  // buffer; every subscriber's ring gets the same bytes by reference.
  auto buf = std::make_shared<const std::vector<std::uint8_t>>(
      wire::encode_response(wire::make_event(e)));
  std::vector<connection_ptr> targets;
  {
    const std::lock_guard<std::mutex> lock(router_mutex_);
    const auto kit = router_by_key_.find(e.key);
    if (kit == router_by_key_.end()) return;
    targets.reserve(kit->second.ids.size());
    for (const std::uint64_t id : kit->second.ids) {
      const auto idit = router_by_id_.find(id);
      if (idit != router_by_id_.end()) targets.push_back(idit->second.conn);
    }
  }
  // Group the flush posts by owning reactor: one inbox lock + one
  // eventfd kick per reactor, however many subscribers it hosts.
  std::vector<std::vector<connection_ptr>> by_reactor(reactors_.size());
  for (const connection_ptr& conn : targets) {
    bool need_post = false;
    if (!enqueue_frame(conn, buf, /*is_event=*/true, need_post)) {
      counters_.events_dropped.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (need_post) {
      by_reactor[static_cast<std::size_t>(conn->owner.index)].push_back(conn);
    }
  }
  for (std::size_t i = 0; i < by_reactor.size(); ++i) {
    if (!by_reactor[i].empty()) {
      post_flush_batch(*reactors_[i], std::move(by_reactor[i]));
    }
  }
}

void server::serve_admin(const pending& p, wire::response& r) {
  if (!config_.enable_admin) {
    r.result = wire::status::denied;
    return;
  }
  svc::instance_registry& registry = service_.registry();
  switch (p.req.kind) {
    case wire::op::admin_list: {
      std::string body = "[";
      for (const svc::key_inspection& k : registry.list_keys()) {
        if (body.size() > 1) body += ',';
        body += inspection_json(k);
        // A pathological key population could outgrow a frame; truncate
        // to whole objects rather than poisoning the client's deframer.
        if (body.size() > wire::max_frame_bytes / 2) break;
      }
      body += ']';
      r.body = std::move(body);
      r.result = wire::status::ok;
      break;
    }
    case wire::op::admin_inspect: {
      const auto k = registry.inspect(p.req.key);
      if (!k.has_value()) {
        r.result = wire::status::not_leader;  // never acquired
        break;
      }
      r.body = inspection_json(*k);
      r.epoch = k->entry.epoch;
      r.result = wire::status::ok;
      break;
    }
    case wire::op::admin_force_release:
      // Through the service, not the registry: the forced-release
      // counter and the journal's "admin" cause live there.
      r.result = wire::from_lease_status(service_.force_release(p.req.key));
      break;
    case wire::op::admin_snapshot: {
      const std::vector<std::uint8_t> snap =
          service_.registry().snapshot(/*trim_log=*/false);
      bool written = false;
      bool write_failed = false;
      if (!config_.snapshot_path.empty()) {
        written = write_snapshot_file(config_.snapshot_path, snap);
        write_failed = !written;
      }
      const cmd::log_stats stats = service_.registry().log_stats();
      obs::series_writer w(obs::series_writer::format::json);
      w.splice("recording", stats.recording ? "true" : "false");
      w.splice("recorded", std::to_string(stats.recorded));
      w.splice("retained", std::to_string(stats.retained));
      w.splice("bytes", std::to_string(snap.size()));
      w.text("path", config_.snapshot_path);
      w.splice("written", written ? "true" : "false");
      r.body = w.take();
      // A snapshot the operator asked to persist but could not be
      // written is a failure, not a success with a footnote.
      r.result =
          write_failed ? wire::status::rejected : wire::status::ok;
      break;
    }
    case wire::op::admin_commands: {
      // Page through the retained command stream: the request's epoch
      // field is the offset into collect_commands() order, the
      // response's epoch is the next offset. The collection is
      // re-taken per page — stable as long as nothing trims between
      // pages (callers fetch at quiesce; a concurrent trim shows up as
      // a shrunk total, not corruption).
      if (!registry.command_log_enabled()) {
        r.result = wire::status::rejected;
        break;
      }
      const std::vector<cmd::command> all = registry.collect_commands();
      const std::uint64_t offset =
          std::min<std::uint64_t>(p.req.epoch, all.size());
      std::string commands = "[";
      std::uint64_t next = offset;
      for (; next < all.size(); ++next) {
        const std::string one = cmd::to_json(all[next]);
        if (commands.size() + one.size() > wire::max_frame_bytes / 2) break;
        if (next > offset) commands += ',';
        commands += one;
      }
      commands += ']';
      obs::series_writer w(obs::series_writer::format::json);
      w.splice("total", std::to_string(all.size()));
      w.splice("offset", std::to_string(offset));
      w.splice("commands", commands);
      r.body = w.take();
      r.epoch = next;
      r.result = wire::status::ok;
      break;
    }
    default:
      r.result = wire::status::bad_request;
      break;
  }
}

void server::serve_blocking(const pending& p) {
  svc::service::session& session = *p.conn->session;
  const obs::trace_scope trace(p.req.trace_id);
  const serve_trace timing(p.req.trace_id, p.req.kind);
  const auto not_primary = [&] {
    return config_.cluster.enabled() && !config_.cluster.is_primary();
  };
  if (not_primary()) {
    wire::response redirect;
    redirect.id = p.req.id;
    redirect.kind = p.req.kind;
    redirect.result = wire::status::not_primary;
    redirect.body = config_.cluster.primary_hint();
    send_response(p.conn, redirect);
    complete(p.conn);
    return;
  }
  const bool bounded = p.req.kind == wire::op::try_acquire_for;
  const auto slice = std::chrono::milliseconds(
      std::max<std::uint64_t>(1, config_.blocking_slice_ms));
  // The wire value is untrusted: clamp before it meets the clock, or a
  // huge timeout overflows the nanosecond rep (UB) / wraps the deadline
  // into the past. A day is indistinguishable from forever here.
  const auto timeout = std::chrono::milliseconds(
      std::min<std::uint64_t>(p.req.timeout_ms, 86'400'000ull));
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  svc::acquire_result result;
  bool abandoned = false;
  for (;;) {
    // Sleep in bounded slices: each wakeup re-checks for server stop and
    // connection death, so no waiter thread outlives either by more than
    // one slice. A won slice attempt is a real win; a timed-out slice
    // just loops.
    auto wait = slice;
    if (bounded) {
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      wait = std::clamp(left, std::chrono::milliseconds(0), slice);
    }
    result = session.try_acquire_for(p.req.key, wait);
    if (result.won || result.rejected) break;
    if (bounded && std::chrono::steady_clock::now() >= deadline) {
      result.timed_out = true;
      break;
    }
    if (p.conn->closed.load(std::memory_order_relaxed)) {
      abandoned = true;
      break;
    }
    if (stopping_.load(std::memory_order_relaxed)) {
      result = svc::acquire_result{};
      result.rejected = true;
      break;
    }
    if (not_primary()) {
      // Deposed mid-wait: the waiter cannot win here any more (the
      // commit gate fails every new grant); tell the client where to
      // re-queue instead of letting it park against a follower.
      wire::response redirect;
      redirect.id = p.req.id;
      redirect.kind = p.req.kind;
      redirect.result = wire::status::not_primary;
      redirect.body = config_.cluster.primary_hint();
      send_response(p.conn, redirect);
      complete(p.conn);
      return;
    }
  }
  if (result.won &&
      (abandoned || p.conn->closed.load(std::memory_order_relaxed))) {
    // The client died while its acquire was in flight; nobody is behind
    // the lease, so hand it straight back instead of wedging the key
    // until the TTL.
    (void)session.reclaim(p.req.key, result.epoch);
    counters_.disconnect_reclaims.fetch_add(1, std::memory_order_relaxed);
    complete(p.conn);
    return;
  }
  if (abandoned) {
    complete(p.conn);
    return;
  }
  send_response(p.conn, acquire_response(p.req, result));
  complete(p.conn);
}

// ---------------------------------------------------------------------
// Response path: output rings, writev flushes, backpressure, teardown.

bool server::enqueue_frame(
    const connection_ptr& conn,
    std::shared_ptr<const std::vector<std::uint8_t>> bytes, bool is_event,
    bool& need_post) {
  need_post = false;
  const std::size_t size = bytes->size();
  bool overflow = false;
  {
    const std::lock_guard<std::mutex> lock(conn->out_mutex);
    if (conn->closed.load(std::memory_order_relaxed)) return false;
    if (conn->outbox_bytes + size > config_.max_outbox_bytes) {
      overflow = true;
    } else {
      conn->outbox.push_back(out_frame{std::move(bytes), is_event});
      conn->outbox_bytes += size;
      if (!conn->flush_queued) {
        conn->flush_queued = true;
        need_post = true;
      }
    }
  }
  if (overflow) {
    // A ring at the cap means the consumer stopped draining long ago;
    // cut the connection rather than buffer without bound.
    start_close(conn);
    return false;
  }
  return true;
}

void server::send_response(const connection_ptr& conn,
                           const wire::response& r) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  auto frame = std::make_shared<const std::vector<std::uint8_t>>(
      wire::encode_response(r));
  bool need_post = false;
  if (enqueue_frame(conn, std::move(frame), /*is_event=*/false, need_post) &&
      need_post) {
    post_flush(conn->owner, conn);
  }
}

void server::post_flush(reactor& r, const connection_ptr& conn) {
  if (current_reactor_tls == &r) {
    flush_connection(r, conn);
    return;
  }
  bool kick = false;
  {
    const std::lock_guard<std::mutex> lock(r.inbox_mutex);
    r.flush_inbox.push_back(conn);
    if (!r.wake_pending) {
      r.wake_pending = true;
      kick = true;
    }
  }
  if (kick) wake(r);
}

void server::post_flush_batch(reactor& r, std::vector<connection_ptr> conns) {
  if (current_reactor_tls == &r) {
    for (const auto& conn : conns) flush_connection(r, conn);
    return;
  }
  bool kick = false;
  {
    const std::lock_guard<std::mutex> lock(r.inbox_mutex);
    for (auto& conn : conns) r.flush_inbox.push_back(std::move(conn));
    if (!r.wake_pending) {
      r.wake_pending = true;
      kick = true;
    }
  }
  if (kick) wake(r);
}

void server::post_resume(reactor& r, const connection_ptr& conn) {
  if (current_reactor_tls == &r) {
    handle_resume(r, conn);
    return;
  }
  bool kick = false;
  {
    const std::lock_guard<std::mutex> lock(r.inbox_mutex);
    r.resume_inbox.push_back(conn);
    if (!r.wake_pending) {
      r.wake_pending = true;
      kick = true;
    }
  }
  if (kick) wake(r);
}

std::pair<std::uint64_t, std::uint64_t> server::pop_written(
    connection& conn, std::size_t wrote) {
  conn.outbox_bytes -= wrote;
  std::uint64_t frames = 0;
  std::uint64_t events = 0;
  while (wrote > 0 && !conn.outbox.empty()) {
    out_frame& front = conn.outbox.front();
    const std::size_t left = front.bytes->size() - conn.out_offset;
    if (wrote >= left) {
      wrote -= left;
      conn.out_offset = 0;
      ++frames;
      if (front.is_event) ++events;
      conn.outbox.pop_front();
    } else {
      conn.out_offset += wrote;
      wrote = 0;
    }
  }
  return {frames, events};
}

void server::flush_connection(reactor& r, const connection_ptr& conn) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  const auto budget = std::chrono::milliseconds(
      std::max<std::uint64_t>(1, config_.event_write_budget_ms));
  std::uint64_t flushed = 0;
  for (;;) {
    iovec iov[64];
    int iov_count = 0;
    {
      const std::lock_guard<std::mutex> lock(conn->out_mutex);
      std::size_t offset = conn->out_offset;
      for (const out_frame& f : conn->outbox) {
        if (iov_count == 64) break;
        iov[iov_count].iov_base =
            const_cast<std::uint8_t*>(f.bytes->data() + offset);
        iov[iov_count].iov_len = f.bytes->size() - offset;
        offset = 0;
        ++iov_count;
      }
      // Drained under the same hold that observed empty: an appender
      // racing in after this will see flush_queued false and post.
      if (iov_count == 0) conn->flush_queued = false;
    }
    if (iov_count == 0) {
      if (conn->want_writable) {
        conn->want_writable = false;
        rearm(r, conn);
      }
      conn->stall_armed = false;
      break;
    }
    const ssize_t wrote = ::writev(conn->fd, iov, iov_count);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        if (!conn->want_writable) {
          conn->want_writable = true;
          rearm(r, conn);
        }
        if (!conn->stall_armed) {
          // Start the no-progress clock; fire_stalls kills the
          // connection if a full budget passes without a byte moving.
          conn->stall_armed = true;
          conn->stall_since = std::chrono::steady_clock::now();
          r.stall_wheel.emplace(conn->stall_since + budget, conn->fd);
        }
        // flush_queued stays set: EPOLLOUT resumes this drain, and
        // appenders need not post meanwhile.
        if (flushed > 0) r.drain_batches.fetch_add(1, std::memory_order_relaxed);
        return;
      }
      finish_connection(r, conn);
      return;
    }
    r.writev_calls.fetch_add(1, std::memory_order_relaxed);
    counters_.bytes_out.fetch_add(static_cast<std::uint64_t>(wrote),
                                  std::memory_order_relaxed);
    conn->stall_armed = false;  // progress resets the stall budget
    std::uint64_t frames = 0;
    std::uint64_t events = 0;
    {
      const std::lock_guard<std::mutex> lock(conn->out_mutex);
      std::tie(frames, events) =
          pop_written(*conn, static_cast<std::size_t>(wrote));
    }
    if (frames > 0) {
      counters_.frames_out.fetch_add(frames, std::memory_order_relaxed);
      r.frames_flushed.fetch_add(frames, std::memory_order_relaxed);
      flushed += frames;
    }
    if (events > 0) {
      counters_.events_pushed.fetch_add(events, std::memory_order_relaxed);
    }
  }
  if (flushed > 0) r.drain_batches.fetch_add(1, std::memory_order_relaxed);
}

void server::fire_stalls(reactor& r) {
  if (r.stall_wheel.empty()) return;
  const auto now = std::chrono::steady_clock::now();
  const auto budget = std::chrono::milliseconds(
      std::max<std::uint64_t>(1, config_.event_write_budget_ms));
  while (!r.stall_wheel.empty() && r.stall_wheel.begin()->first <= now) {
    const int fd = r.stall_wheel.begin()->second;
    r.stall_wheel.erase(r.stall_wheel.begin());
    const auto it = r.connections.find(fd);
    if (it == r.connections.end()) continue;  // already finished
    const connection_ptr conn = it->second;
    // An entry is current only if its deadline matches the live arm
    // time; progress disarms, a re-arm inserts a fresh entry. Stale
    // entries are skipped, not rescheduled.
    if (!conn->stall_armed) continue;
    if (conn->stall_since + budget > now) continue;
    // No progress for a full budget: a dead consumer. Its queued
    // frames count as dropped in finish_connection.
    finish_connection(r, conn);
  }
}

int server::next_stall_timeout_ms(reactor& r) const {
  if (r.stall_wheel.empty()) return -1;
  const auto now = std::chrono::steady_clock::now();
  const auto first = r.stall_wheel.begin()->first;
  if (first <= now) return 0;
  const auto ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(first - now)
          .count() +
      1;
  return static_cast<int>(std::min<long long>(ms, 60'000));
}

void server::rearm(reactor& r, const connection_ptr& conn) {
  if (conn->closed.load(std::memory_order_relaxed)) return;
  std::uint32_t mask = EPOLLRDHUP;
  {
    const std::lock_guard<std::mutex> lock(conn->pause_mutex);
    if (!conn->paused) mask |= EPOLLIN;
  }
  if (conn->want_writable) mask |= EPOLLOUT;
  epoll_event ev{};
  ev.events = mask;
  ev.data.fd = conn->fd;
  (void)::epoll_ctl(r.epoll_fd, EPOLL_CTL_MOD, conn->fd, &ev);
}

void server::complete(const connection_ptr& conn) {
  conn->in_flight.fetch_sub(1, std::memory_order_acq_rel);
  bool post = false;
  {
    const std::lock_guard<std::mutex> lock(conn->pause_mutex);
    if (conn->paused && !conn->resume_queued &&
        !conn->closed.load(std::memory_order_relaxed) &&
        conn->in_flight.load(std::memory_order_acquire) <=
            config_.max_inflight_per_connection / 2) {
      conn->resume_queued = true;
      post = true;
    }
  }
  if (post) post_resume(conn->owner, conn);
}

void server::maybe_pause(reactor& r, const connection_ptr& conn) {
  bool paused_now = false;
  {
    const std::lock_guard<std::mutex> lock(conn->pause_mutex);
    if (conn->paused || conn->closed.load(std::memory_order_relaxed)) return;
    if (conn->in_flight.load(std::memory_order_acquire) <
        config_.max_inflight_per_connection) {
      return;
    }
    conn->paused = true;
    paused_now = true;
  }
  if (paused_now) {
    counters_.backpressure_pauses.fetch_add(1, std::memory_order_relaxed);
    rearm(r, conn);
  }
}

void server::handle_resume(reactor& r, const connection_ptr& conn) {
  bool resumed = false;
  {
    const std::lock_guard<std::mutex> lock(conn->pause_mutex);
    conn->resume_queued = false;
    if (!conn->paused || conn->closed.load(std::memory_order_relaxed)) return;
    if (conn->in_flight.load(std::memory_order_acquire) >
        config_.max_inflight_per_connection / 2) {
      // Filled back up since the post; a later complete() re-posts.
      return;
    }
    conn->paused = false;
    resumed = true;
  }
  if (resumed) rearm(r, conn);
}

void server::start_close(const connection_ptr& conn) {
  if (conn->closed.exchange(true)) return;
  // The local shutdown makes epoll report the fd (EPOLLHUP fires even
  // for a paused connection), so the owning reactor runs
  // finish_connection.
  ::shutdown(conn->fd, SHUT_RDWR);
}

void server::finish_connection(reactor& r, const connection_ptr& conn) {
  if (r.connections.erase(conn->fd) == 0) return;  // already finished
  const bool was_closed = conn->closed.exchange(true);
  if (!was_closed) {
    // Final opportunistic flush: a one-shot refusal (bad hello, oversize
    // frame) must still reach the peer, and responses a clean
    // disconnect raced past deserve a best effort. writev while bytes
    // move; EAGAIN or error abandons the rest.
    const std::lock_guard<std::mutex> lock(conn->out_mutex);
    while (!conn->outbox.empty()) {
      iovec iov[64];
      int iov_count = 0;
      std::size_t offset = conn->out_offset;
      for (const out_frame& f : conn->outbox) {
        if (iov_count == 64) break;
        iov[iov_count].iov_base =
            const_cast<std::uint8_t*>(f.bytes->data() + offset);
        iov[iov_count].iov_len = f.bytes->size() - offset;
        offset = 0;
        ++iov_count;
      }
      const ssize_t wrote = ::writev(conn->fd, iov, iov_count);
      if (wrote <= 0) {
        if (wrote < 0 && errno == EINTR) continue;
        break;
      }
      r.writev_calls.fetch_add(1, std::memory_order_relaxed);
      counters_.bytes_out.fetch_add(static_cast<std::uint64_t>(wrote),
                                    std::memory_order_relaxed);
      const auto popped = pop_written(*conn, static_cast<std::size_t>(wrote));
      if (popped.first > 0) {
        counters_.frames_out.fetch_add(popped.first,
                                       std::memory_order_relaxed);
        r.frames_flushed.fetch_add(popped.first, std::memory_order_relaxed);
      }
      if (popped.second > 0) {
        counters_.events_pushed.fetch_add(popped.second,
                                          std::memory_order_relaxed);
      }
    }
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  (void)::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
  conn->stall_armed = false;
  {
    // Whatever could not be flushed is gone; count the lost events.
    const std::lock_guard<std::mutex> lock(conn->out_mutex);
    std::uint64_t dropped = 0;
    for (const out_frame& f : conn->outbox) {
      if (f.is_event) ++dropped;
    }
    conn->outbox.clear();
    conn->outbox_bytes = 0;
    conn->out_offset = 0;
    if (dropped > 0) {
      counters_.events_dropped.fetch_add(dropped, std::memory_order_relaxed);
    }
  }
  // Cancel the connection's watch registrations. Hub subscriptions
  // whose last subscriber this was are removed OUTSIDE the router lock:
  // hub remove waits for in-flight deliveries, and a delivery takes the
  // router lock (fanout_event) — holding it here would deadlock.
  std::vector<std::uint64_t> hub_drops;
  {
    const std::lock_guard<std::mutex> lock(router_mutex_);
    for (const std::uint64_t id : conn->watch_ids) {
      const auto idit = router_by_id_.find(id);
      if (idit == router_by_id_.end()) continue;
      const std::string key = idit->second.key;
      router_by_id_.erase(idit);
      const auto kit = router_by_key_.find(key);
      if (kit == router_by_key_.end()) continue;
      auto& ids = kit->second.ids;
      ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
      if (ids.empty() && !kit->second.subscribing) {
        if (kit->second.hub_id != 0) hub_drops.push_back(kit->second.hub_id);
        router_by_key_.erase(kit);
      }
    }
    conn->watch_ids.clear();
  }
  for (const std::uint64_t hub : hub_drops) service_.unwatch(hub);
  if (conn->session.has_value()) {
    // The disconnect-on-close hook: whatever the remote client held is
    // reclaimed NOW — its rivals re-elect immediately instead of
    // waiting out the lease TTL. In-flight wins for this connection are
    // reclaimed by their waiters (see serve_blocking). Each reclaimed
    // key's disconnect_reclaimed command carries its real epoch, so the
    // event journal names every key with no pre-scan of held keys.
    const std::size_t reclaimed = conn->session->reclaim_all();
    counters_.disconnect_reclaims.fetch_add(reclaimed,
                                            std::memory_order_relaxed);
  }
  r.active.fetch_sub(1, std::memory_order_relaxed);
  connections_active_.fetch_sub(1, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------
// The HTTP side-channel (reactor 0 only). Deliberately minimal:
// GET-only, one request per connection, answer and close. A scrape is
// small and rare; anything fancier (keep-alive, chunking, pipelining)
// buys nothing here and costs reactor-0 attention.

void server::http_accept_ready(reactor& r) {
  for (;;) {
    const int fd = ::accept4(http_listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stopping_.load(std::memory_order_relaxed) ||
        http_conns_.size() >= 64) {
      ::close(fd);
      continue;
    }
    epoll_event ev{};
    ev.events = EPOLLIN | EPOLLRDHUP;
    ev.data.fd = fd;
    if (::epoll_ctl(r.epoll_fd, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    http_conns_.emplace(fd, std::string());
  }
}

void server::http_read_ready(reactor& r, int fd) {
  const auto it = http_conns_.find(fd);
  if (it == http_conns_.end()) return;
  std::string& buffered = it->second;
  char buf[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, buf, sizeof buf, 0);
    if (got > 0) {
      buffered.append(buf, static_cast<std::size_t>(got));
      if (buffered.size() > 8192) {  // no sane GET is this big
        http_close(r, fd);
        return;
      }
      continue;
    }
    if (got == 0) {
      http_close(r, fd);
      return;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    http_close(r, fd);
    return;
  }
  // Headers complete? (We ignore them — the request line is the API.)
  if (buffered.find("\r\n\r\n") == std::string::npos &&
      buffered.find("\n\n") == std::string::npos) {
    return;  // wait for the rest
  }
  http_respond(fd, buffered);
  http_close(r, fd);
}

void server::http_respond(int fd, const std::string& buffered) {
  // Parse "METHOD SP path ..." off the request line.
  const std::size_t line_end = buffered.find_first_of("\r\n");
  const std::string line = buffered.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 =
      sp1 == std::string::npos ? std::string::npos : line.find(' ', sp1 + 1);
  std::string method =
      sp1 == std::string::npos ? std::string() : line.substr(0, sp1);
  std::string path = sp2 == std::string::npos
                         ? std::string()
                         : line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t query = path.find('?');
  if (query != std::string::npos) path.resize(query);

  const char* status = "200 OK";
  const char* content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string body;
  if (method != "GET") {
    status = "405 Method Not Allowed";
    content_type = "text/plain; charset=utf-8";
    body = "method not allowed\n";
  } else if (path == "/metrics") {
    const net_report net = report();
    obs::series_writer w(obs::series_writer::format::prometheus);
    service_.report().describe(w);
    w.section("net", [&] { net.describe(w); });
    body = w.take();
    if (config_.cluster.prom_text) body += config_.cluster.prom_text();
  } else if (path == "/report") {
    content_type = "application/json";
    body = report_json();
  } else if (path == "/healthz") {
    content_type = "text/plain; charset=utf-8";
    body = "ok\n";
  } else {
    status = "404 Not Found";
    content_type = "text/plain; charset=utf-8";
    body = "not found\n";
  }

  std::string response = "HTTP/1.0 ";
  response += status;
  response += "\r\nContent-Type: ";
  response += content_type;
  response += "\r\nContent-Length: ";
  response += std::to_string(body.size());
  response += "\r\nConnection: close\r\n\r\n";
  response += body;
  // Bounded write on the reactor thread: a scrape response is a few
  // KiB, but a wedged scraper must not park the reactor indefinitely.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(2);
  (void)write_all(fd, reinterpret_cast<const std::uint8_t*>(response.data()),
                  response.size(), stopping_, &deadline);
}

void server::http_close(reactor& r, int fd) {
  (void)::epoll_ctl(r.epoll_fd, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  http_conns_.erase(fd);
}

// ---------------------------------------------------------------------
// Reporting.

net_report server::report() const {
  net_report r;
  r.connections_accepted =
      counters_.connections_accepted.load(std::memory_order_relaxed);
  r.connections_active =
      connections_active_.load(std::memory_order_relaxed);
  r.connections_refused =
      counters_.connections_refused.load(std::memory_order_relaxed);
  r.frames_in = counters_.frames_in.load(std::memory_order_relaxed);
  r.frames_out = counters_.frames_out.load(std::memory_order_relaxed);
  r.bytes_in = counters_.bytes_in.load(std::memory_order_relaxed);
  r.bytes_out = counters_.bytes_out.load(std::memory_order_relaxed);
  r.requests = counters_.requests.load(std::memory_order_relaxed);
  r.dispatch_batches =
      counters_.dispatch_batches.load(std::memory_order_relaxed);
  r.backpressure_pauses =
      counters_.backpressure_pauses.load(std::memory_order_relaxed);
  r.busy_rejections =
      counters_.busy_rejections.load(std::memory_order_relaxed);
  r.protocol_errors =
      counters_.protocol_errors.load(std::memory_order_relaxed);
  r.disconnect_reclaims =
      counters_.disconnect_reclaims.load(std::memory_order_relaxed);
  r.watch_subscriptions =
      counters_.watch_subscriptions.load(std::memory_order_relaxed);
  r.events_pushed = counters_.events_pushed.load(std::memory_order_relaxed);
  r.events_dropped =
      counters_.events_dropped.load(std::memory_order_relaxed);
  r.reactors = reactors_.size();
  r.reuseport = reuseport_active_;
  r.per_reactor.reserve(reactors_.size());
  for (const auto& re : reactors_) {
    net_report::reactor_stat s;
    s.index = re->index;
    s.connections = re->active.load(std::memory_order_relaxed);
    s.accepted = re->accepted.load(std::memory_order_relaxed);
    s.wakeups = re->wakeups.load(std::memory_order_relaxed);
    s.writev_calls = re->writev_calls.load(std::memory_order_relaxed);
    s.frames_flushed = re->frames_flushed.load(std::memory_order_relaxed);
    s.drain_batches = re->drain_batches.load(std::memory_order_relaxed);
    s.requests = re->requests.load(std::memory_order_relaxed);
    r.writev_calls += s.writev_calls;
    r.frames_flushed += s.frames_flushed;
    r.reactor_wakeups += s.wakeups;
    r.per_reactor.push_back(s);
  }
  return r;
}

std::string server::report_json() const {
  svc::service_report combined = service_.report();
  combined.net_json = report().to_json();
  if (config_.cluster.status_json) {
    combined.repl_json = config_.cluster.status_json();
  }
  return combined.to_json();
}

}  // namespace elect::net
