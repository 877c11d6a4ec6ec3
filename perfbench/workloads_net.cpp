// The three workloads that go over loopback TCP: tcp_fastpath (raw
// pipelined net::client traffic, adaptive CAS grants), cluster3_commit
// (the same traffic through the primary of a 3-member repl cluster) and
// tcp_handoff (api::clients contending for one hot key).
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <mutex>
#include <numeric>
#include <random>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/client.hpp"
#include "checks.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "obs/trace.hpp"
#include "repl/config.hpp"
#include "repl/node.hpp"
#include "svc/service.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace elect;
using namespace std::chrono_literals;

/// Client threads and connections: one per core of the 4-core box the
/// reference figures come from.
constexpr int connections = 4;
/// Pipelined pairs each connection keeps in flight.
constexpr int window = 16;
/// Keys per connection (tcp_fastpath): 65536 keys in all.
constexpr int fastpath_keys_per_conn = 16384;
/// Keys per connection (cluster3_commit): every populate op waits on a
/// quorum commit, so the keyspace is smaller.
constexpr int cluster_keys_per_conn = 2048;
/// Traced runs sample about one op in this many.
constexpr int trace_one_in = 64;
/// Keys per member the cluster drain check inspects.
constexpr int inspected_keys = 64;

double us_between(std::uint64_t a, std::uint64_t b) {
  return b > a ? static_cast<double>(b - a) / 1000.0 : 0.0;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

span_kind kind_of(obs::phase p) {
  switch (p) {
    case obs::phase::api_call:
      return span_kind::api_inner;
    case obs::phase::wire_rtt:
      return span_kind::rtt;
    case obs::phase::serve:
      return span_kind::serve;
    case obs::phase::queue_wait:
      return span_kind::queue_wait;
    case obs::phase::fast_path:
      return span_kind::fast_path;
    case obs::phase::election:
      return span_kind::election;
    case obs::phase::lease_grant:
      return span_kind::lease_grant;
    case obs::phase::epoch_wait:
      return span_kind::epoch_wait;
    case obs::phase::lease_op:
      return span_kind::lease_op;
  }
  return span_kind::serve;
}

void append_program_spans(std::uint64_t trace, std::vector<span>& out) {
  for (const obs::span& s : obs::collect(trace)) {
    out.push_back({kind_of(s.stage), s.start_ns, s.end_ns});
  }
}

std::uint16_t reserve_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return 0;
  }
  socklen_t len = sizeof addr;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  const std::uint16_t port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

// ---------------------------------------------------------------------
// Commit-gate timing (cluster3_commit, traced run): the gate node::start
// installs is replaced by one that times repl::node::wait_committed.

class gate_timer {
 public:
  void record(std::uint64_t trace, std::uint64_t start, std::uint64_t end) {
    const std::lock_guard<std::mutex> lock(mutex_);
    wait_us_.push_back(us_between(start, end));
    if (trace != 0) {
      by_trace_[trace].push_back({span_kind::commit_wait, start, end});
    }
  }
  [[nodiscard]] std::vector<span> take(std::uint64_t trace) {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = by_trace_.find(trace);
    if (it == by_trace_.end()) return {};
    std::vector<span> out = std::move(it->second);
    by_trace_.erase(it);
    return out;
  }
  /// The waits recorded since the last reset, clearing them.
  [[nodiscard]] std::vector<double> take_waits() {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<double> out = std::move(wait_us_);
    wait_us_.clear();
    by_trace_.clear();
    return out;
  }

 private:
  std::mutex mutex_;
  std::vector<double> wait_us_;
  std::unordered_map<std::uint64_t, std::vector<span>> by_trace_;
};

// ---------------------------------------------------------------------
// Pipelined acquire -> fenced release pairs on keys a connection owns.

struct conn_state {
  std::unique_ptr<net::client> client;
  std::vector<std::string> keys;
  /// Fenced releases per key so far: the next grant's epoch.
  std::vector<std::uint64_t> releases;
  /// Seeded permutation of key indices; windows walk it cyclically, so
  /// the keys of one window are distinct.
  std::vector<std::uint32_t> order;
  std::size_t cursor = 0;
  std::mt19937_64 rng;
};

/// Interval series: whole-op latency and the per-workload handoff gap.
constexpr int op_series = 0;
constexpr int handoff_series = 1;

/// What one thread of one measured phase saw.
struct thread_out {
  thread_out(std::uint64_t start_ns, double seconds, std::uint64_t seed)
      : stats(start_ns, seconds, seed) {}

  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::uint64_t end_ns = 0;
  interval_stats stats;
  /// api::client acquire / release call times (tcp_handoff traced runs).
  std::vector<double> acquire_us;
  std::vector<double> release_us;
  std::vector<std::vector<span>> traced;
  std::vector<std::string> violations;

  void violate(const std::vector<std::string>& v) {
    for (const auto& s : v) {
      if (violations.size() < 16) violations.push_back(s);
    }
  }
};

/// Merged result of one measured phase.
struct phase_out {
  phase_out(std::uint64_t start_ns, double seconds)
      : stats(start_ns, seconds, 0) {}

  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  double seconds = 0.0;
  double cpu_s = 0.0;
  interval_stats stats;
  std::vector<double> acquire_us;
  std::vector<double> release_us;
  std::vector<std::vector<span>> traced;
  std::vector<std::string> violations;
  std::vector<checks::grant> grants;
};

/// Threads of one phase, each with its own interval statistics.
std::vector<thread_out> thread_outs(std::size_t n, std::uint64_t start_ns,
                                    double seconds, std::uint64_t seed) {
  std::vector<thread_out> outs;
  for (std::size_t i = 0; i < n; ++i) outs.emplace_back(start_ns, seconds, mix(seed, i));
  return outs;
}

phase_out merge(std::vector<thread_out>& threads, std::uint64_t start_ns,
                double seconds, double cpu_start) {
  phase_out p(start_ns, seconds);
  std::uint64_t end_ns = start_ns;
  for (auto& t : threads) {
    p.ops += t.ops;
    p.failed += t.failed;
    end_ns = std::max(end_ns, t.end_ns);
    p.stats.merge(t.stats);
    p.acquire_us.insert(p.acquire_us.end(), t.acquire_us.begin(),
                        t.acquire_us.end());
    p.release_us.insert(p.release_us.end(), t.release_us.begin(),
                        t.release_us.end());
    for (auto& s : t.traced) p.traced.push_back(std::move(s));
    p.violations.insert(p.violations.end(), t.violations.begin(),
                        t.violations.end());
  }
  p.seconds = static_cast<double>(end_ns - start_ns) / 1e9;
  p.cpu_s = process_cpu_s() - cpu_start;
  return p;
}

/// Per-slot state and timings of one window.
struct window_io {
  std::vector<std::uint32_t> idx;
  std::vector<std::uint64_t> ids;
  std::vector<std::uint64_t> epochs;
  std::vector<std::uint64_t> t_sub;
  std::vector<std::uint64_t> t_acq;
  std::vector<std::uint64_t> t_rs;
  std::vector<std::uint64_t> t_rel;
  std::vector<std::uint8_t> state;  // 0 failed, 1 granted, 2 done

  explicit window_io(std::size_t w)
      : idx(w), ids(w), epochs(w), t_sub(w), t_acq(w), t_rs(w), t_rel(w),
        state(w) {}
};

/// One window on the first `w` keys of `io.idx`: submit every acquire,
/// take them, submit every fenced release, take them. Slot `sampled` (or
/// -1) runs under `trace`.
void run_window(conn_state& c, window_io& io, std::size_t w, int sampled,
                std::uint64_t trace, thread_out& out) {
  net::client& client = *c.client;
  for (std::size_t p = 0; p < w; ++p) {
    const std::string& key = c.keys[io.idx[p]];
    io.t_sub[p] = now_ns();
    if (static_cast<int>(p) == sampled) {
      const obs::trace_scope scope(trace);
      io.ids[p] = client.submit(net::wire::op::try_acquire, key);
    } else {
      io.ids[p] = client.submit(net::wire::op::try_acquire, key);
    }
  }
  for (std::size_t p = 0; p < w; ++p) {
    const auto r = client.take(io.ids[p]);
    io.t_acq[p] = now_ns();
    io.state[p] = 0;
    if (!r.has_value() || r->result == net::wire::status::rejected ||
        r->result == net::wire::status::connection_lost) {
      ++out.failed;
      continue;
    }
    const std::uint32_t k = io.idx[p];
    const auto v = checks::owned_grant(c.keys[k], c.releases[k], r->won(),
                                       r->epoch);
    if (!v.empty()) {
      out.violate(v);
      continue;
    }
    io.epochs[p] = r->epoch;
    io.state[p] = 1;
  }
  for (std::size_t p = 0; p < w; ++p) {
    if (io.state[p] != 1) continue;
    const std::string& key = c.keys[io.idx[p]];
    io.t_rs[p] = now_ns();
    if (static_cast<int>(p) == sampled) {
      const obs::trace_scope scope(trace);
      io.ids[p] =
          client.submit(net::wire::op::release_fenced, key, io.epochs[p]);
    } else {
      io.ids[p] =
          client.submit(net::wire::op::release_fenced, key, io.epochs[p]);
    }
  }
  for (std::size_t p = 0; p < w; ++p) {
    if (io.state[p] != 1) continue;
    const auto r = client.take(io.ids[p]);
    io.t_rel[p] = now_ns();
    if (!r.has_value() || r->result == net::wire::status::connection_lost) {
      ++out.failed;
      io.state[p] = 0;
      continue;
    }
    const std::uint32_t k = io.idx[p];
    const auto v = checks::fenced_release(c.keys[k], io.epochs[p],
                                          r->result == net::wire::status::ok);
    if (!v.empty()) {
      out.violate(v);
      io.state[p] = 0;
      continue;
    }
    ++c.releases[k];
    io.state[p] = 2;
  }
}

/// Every key of `c` once, in index order: builds the keyspace (each key
/// exists at epoch 1) and warms the whole path.
void populate(conn_state& c, thread_out& out) {
  window_io io(window);
  const auto n = c.keys.size();
  for (std::size_t base = 0; base < n; base += window) {
    const std::size_t w = std::min<std::size_t>(window, n - base);
    for (std::size_t p = 0; p < w; ++p) {
      io.idx[p] = static_cast<std::uint32_t>(base + p);
    }
    run_window(c, io, w, -1, 0, out);
  }
}

/// Closed-loop windows until `deadline_ns`. A traced phase samples about
/// one op in trace_one_in and reads its spans back one window later
/// (the server records its `serve` span after the response is on its
/// way, so the op's last span may land just after the client saw it).
void pipeline_thread(conn_state& c, std::uint64_t deadline_ns, bool traced,
                     gate_timer* gate, thread_out& out) {
  window_io io(window);
  std::vector<std::uint64_t> last_release(window, 0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  const double p_window = static_cast<double>(window) / trace_one_in;
  std::vector<span> pending;
  std::uint64_t pending_trace = 0;
  const auto flush_pending = [&] {
    if (pending_trace == 0) return;
    append_program_spans(pending_trace, pending);
    if (gate != nullptr) {
      for (const span& s : gate->take(pending_trace)) pending.push_back(s);
    }
    out.traced.push_back(std::move(pending));
    pending.clear();
    pending_trace = 0;
  };
  const std::size_t n = c.order.size();
  while (now_ns() < deadline_ns) {
    int sampled = -1;
    std::uint64_t trace = 0;
    if (traced && coin(c.rng) < p_window) {
      sampled = static_cast<int>(c.rng() % window);
      trace = obs::mint();
    }
    for (std::size_t p = 0; p < window; ++p) {
      io.idx[p] = c.order[c.cursor++ % n];
    }
    run_window(c, io, window, sampled, trace, out);
    for (std::size_t p = 0; p < window; ++p) {
      if (io.state[p] != 2) continue;
      ++out.ops;
      out.stats.count(io.t_rel[p]);
      out.stats.add(op_series, io.t_rel[p],
                    us_between(io.t_sub[p], io.t_rel[p]));
      if (last_release[p] != 0) {
        out.stats.add(handoff_series, io.t_acq[p],
                      us_between(last_release[p], io.t_acq[p]));
      }
      last_release[p] = io.t_rel[p];
    }
    flush_pending();
    if (sampled >= 0 && io.state[static_cast<std::size_t>(sampled)] == 2) {
      const auto s = static_cast<std::size_t>(sampled);
      pending = {{span_kind::op, io.t_sub[s], io.t_rel[s]},
                 {span_kind::rtt, io.t_sub[s], io.t_acq[s]},
                 {span_kind::rtt, io.t_rs[s], io.t_rel[s]}};
      pending_trace = trace;
    }
  }
  out.end_ns = now_ns();
  if (pending_trace != 0) {
    std::this_thread::sleep_for(2ms);
    flush_pending();
  }
}

phase_out run_pipeline_phase(std::vector<conn_state>& conns, double seconds,
                             bool traced, gate_timer* gate) {
  const double cpu0 = process_cpu_s();
  const std::uint64_t start = now_ns();
  std::vector<thread_out> outs =
      thread_outs(conns.size(), start, seconds, conns[0].rng());
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    threads.emplace_back([&, i] {
      pipeline_thread(conns[i], deadline, traced, gate, outs[i]);
    });
  }
  for (auto& t : threads) t.join();
  return merge(outs, start, seconds, cpu0);
}

/// Connections with their key slices, seeded key order, and a populated
/// keyspace. Populating runs on all connections at once.
std::vector<conn_state> open_connections(std::uint16_t port,
                                         const std::string& prefix,
                                         int keys_per_conn,
                                         std::uint64_t seed, result& res) {
  std::vector<conn_state> conns(connections);
  for (int i = 0; i < connections; ++i) {
    conn_state& c = conns[static_cast<std::size_t>(i)];
    c.client = std::make_unique<net::client>("127.0.0.1", port);
    if (!c.client->connected()) res.violate("client could not connect");
    c.keys.reserve(static_cast<std::size_t>(keys_per_conn));
    for (int k = 0; k < keys_per_conn; ++k) {
      c.keys.push_back(prefix + "/" + std::to_string(i) + "/" +
                       std::to_string(k));
    }
    c.releases.assign(static_cast<std::size_t>(keys_per_conn), 0);
    c.order.resize(static_cast<std::size_t>(keys_per_conn));
    std::iota(c.order.begin(), c.order.end(), 0u);
    c.rng.seed(mix(seed, 0x6b657973, static_cast<std::uint64_t>(i)));
    std::shuffle(c.order.begin(), c.order.end(), c.rng);
  }
  std::vector<thread_out> outs = thread_outs(conns.size(), now_ns(), 0, 0);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    threads.emplace_back([&, i] { populate(conns[i], outs[i]); });
  }
  for (auto& t : threads) t.join();
  for (const auto& o : outs) {
    res.violate_all(o.violations);
    if (o.failed != 0) res.violate("populate: transport failures");
  }
  return conns;
}

// ---------------------------------------------------------------------
// Counters read from the program around a measured window.

struct counters {
  svc::service_report service;
  net::net_report net;
  obs::trace_counters trace;
  repl::node_counters repl;
  cmd::log_stats log;
};

/// Counter growth over the measured phases of a run (summed over its
/// set-ups).
struct delta {
  double acquires = 0, messages = 0, pushes = 0, short_circuits = 0;
  double writev = 0, frames_flushed = 0, requests = 0, drains = 0;
  double wakeups = 0, bytes = 0, busy = 0, spans = 0;
  double appends = 0, entries = 0, commit_timeouts = 0, commands = 0;
  double fast_hits = 0;
  /// Largest retained command log seen at the end of a set-up.
  double retained = 0;

  void add(const counters& a, const counters& b) {
    const auto d = [](std::uint64_t x, std::uint64_t y) {
      return static_cast<double>(y - x);
    };
    acquires += d(a.service.acquires, b.service.acquires);
    messages += d(a.service.total_messages, b.service.total_messages);
    pushes += d(a.service.mailbox_pushes, b.service.mailbox_pushes);
    short_circuits +=
        d(a.service.short_circuit_losses, b.service.short_circuit_losses);
    fast_hits += d(a.service.fast_path.hits, b.service.fast_path.hits);
    writev += d(a.net.writev_calls, b.net.writev_calls);
    frames_flushed += d(a.net.frames_flushed, b.net.frames_flushed);
    requests += d(a.net.requests, b.net.requests);
    drains += d(a.net.dispatch_batches, b.net.dispatch_batches);
    wakeups += d(a.net.reactor_wakeups, b.net.reactor_wakeups);
    bytes += d(a.net.bytes_in + a.net.bytes_out,
               b.net.bytes_in + b.net.bytes_out);
    busy += d(a.net.busy_rejections, b.net.busy_rejections);
    spans += d(a.trace.spans, b.trace.spans);
    appends += d(a.repl.appends_sent, b.repl.appends_sent);
    entries += d(a.repl.entries_replicated, b.repl.entries_replicated);
    commit_timeouts += d(a.repl.commit_timeouts, b.repl.commit_timeouts);
    commands += d(a.log.recorded, b.log.recorded);
    retained = std::max(retained, static_cast<double>(b.log.retained));
  }
};

counters read_counters(svc::service& service, net::server& server) {
  counters c;
  c.service = service.report();
  c.net = server.report();
  c.trace = obs::counters();
  c.log = service.registry().log_stats();
  return c;
}

/// Median ns per call of `fn` over batches.
double time_ns(const std::function<void()>& fn) {
  constexpr int batch = 200;
  std::vector<double> per_call;
  for (int b = 0; b < 50; ++b) {
    const std::uint64_t t0 = now_ns();
    for (int i = 0; i < batch; ++i) fn();
    per_call.push_back(static_cast<double>(now_ns() - t0) / batch);
  }
  return median(per_call);
}

/// net.wire: encode a try_acquire request and decode its response, on a
/// key of the workload's shape.
void put_wire_costs(const std::string& key, result& out) {
  net::wire::request req;
  req.id = 12345;
  req.kind = net::wire::op::try_acquire;
  req.key = key;
  std::size_t sink = 0;
  out.put("net.wire.encode_ns",
          time_ns([&] { sink += net::wire::encode_request(req).size(); }));
  net::wire::response resp;
  resp.id = 12345;
  resp.kind = net::wire::op::try_acquire;
  resp.flags = net::wire::flag_won | net::wire::flag_fast_path;
  resp.epoch = 7;
  resp.lease_remaining_ms = net::wire::lease_forever;
  const auto frame = net::wire::encode_response(resp);
  const std::vector<std::uint8_t> body(frame.begin() + 4, frame.end());
  out.put("net.wire.decode_ns", time_ns([&] {
            sink += net::wire::decode_response(body).has_value() ? 1 : 0;
          }));
  if (sink == 0) out.violate("wire codec produced nothing");
}

/// The measured phases of one run: one per set-up, or two (untraced,
/// then traced) per set-up in a traced run.
struct run_phases {
  std::vector<phase_out> plain;
  std::vector<phase_out> traced;
  delta counts;

  [[nodiscard]] double ops() const {
    double n = 0;
    for (const auto* list : {&plain, &traced}) {
      for (const auto& p : *list) n += static_cast<double>(p.ops);
    }
    return n;
  }
};

/// Intervals pooled over phases.
template <typename F>
std::vector<double> pooled(const std::vector<phase_out>& phases, F intervals) {
  std::vector<double> out;
  for (const auto& p : phases) {
    const std::vector<double> v = intervals(p);
    out.insert(out.end(), v.begin(), v.end());
  }
  return out;
}

void account(const run_phases& ph, result& out) {
  for (const auto* list : {&ph.plain, &ph.traced}) {
    for (const auto& p : *list) {
      out.attempted += p.ops + p.failed;
      out.failed += p.failed;
      out.violate_all(p.violations);
    }
  }
}

/// The end-to-end metric set over the untraced phases.
void put_end_to_end(const run_phases& ph, double setup_s, result& out) {
  double ops = 0;
  double cpu_s = 0;
  for (const auto& p : ph.plain) {
    ops += static_cast<double>(p.ops);
    cpu_s += p.cpu_s;
  }
  out.put("setup_s", setup_s);
  out.put("ops_per_s",
          median(pooled(ph.plain, [](const phase_out& p) {
            return p.stats.rates();
          })));
  out.put("op_p50_us",
          median(pooled(ph.plain, [](const phase_out& p) {
            return p.stats.medians(op_series);
          })));
  out.put("cpu_us_per_op", ratio(cpu_s * 1e6, ops));
  out.put("rss_mb", peak_rss_mb());
  out.put("handoff_p50_us",
          median(pooled(ph.plain, [](const phase_out& p) {
            return p.stats.medians(handoff_series);
          })));
}

/// The traced run's shared part: p99s of the untraced halves, the layer
/// budget of the traced halves, the tracing overhead, the counter ratios
/// and the table.
void put_traced(run_phases& ph, result& out) {
  layer_budget budget;
  double plain_ops = 0, plain_s = 0, traced_ops = 0, traced_s = 0;
  for (auto& p : ph.traced) {
    for (auto& spans : p.traced) budget.add_op(std::move(spans));
    traced_ops += static_cast<double>(p.ops);
    traced_s += p.seconds;
  }
  for (const auto& p : ph.plain) {
    plain_ops += static_cast<double>(p.ops);
    plain_s += p.seconds;
  }
  const double plain_rate = ratio(plain_ops, plain_s);
  const double traced_rate = ratio(traced_ops, traced_s);
  std::vector<double> op_us = pooled(
      ph.plain, [](const phase_out& p) { return p.stats.kept(op_series); });
  std::vector<double> handoff_us = pooled(ph.plain, [](const phase_out& p) {
    return p.stats.kept(handoff_series);
  });
  const double op_p50 = median(pooled(ph.plain, [](const phase_out& p) {
    return p.stats.medians(op_series);
  }));
  const double op_p99 = quantile(op_us, 0.99);
  const double handoff_p99 = quantile(handoff_us, 0.99);
  out.put("op_p99_us", op_p99);
  out.put("handoff_p99_us", handoff_p99);
  out.put("obs.traced_op_p50_us", budget.op_p50_us());
  out.put("obs.trace_overhead_pct",
          plain_rate > 0 ? 100.0 * (plain_rate - traced_rate) / plain_rate
                         : 0.0);
  out.put("layer_residual_p50_us", budget.residual_p50_us());
  out.put("svc.fast_path_p50_us", budget.raw_p50_us(span_kind::fast_path));
  out.put("svc.lease_op_p50_us", budget.raw_p50_us(span_kind::lease_op));
  out.put("svc.queue_wait_p50_us", budget.raw_p50_us(span_kind::queue_wait));
  out.put("svc.epoch_wait_p50_us", budget.raw_p50_us(span_kind::epoch_wait));
  out.put("election.p50_us", budget.raw_p50_us(span_kind::election));
  out.put("election.lease_grant_p50_us",
          budget.raw_p50_us(span_kind::lease_grant));
  out.put("net.client.rtt_p50_us", budget.raw_p50_us(span_kind::rtt));
  out.put("net.server.serve_p50_us", budget.raw_p50_us(span_kind::serve));
  out.put("net.edge_p50_us", budget.self_p50_us(span_kind::rtt));

  const delta& d = ph.counts;
  const double ops = ph.ops();
  out.put("net.frames_per_writev", ratio(d.frames_flushed, d.writev));
  out.put("net.requests_per_drain", ratio(d.requests, d.drains));
  out.put("net.wakeups_per_op", ratio(d.wakeups, ops));
  out.put("net.bytes_per_op", ratio(d.bytes, ops));
  out.put("net.busy_rejections_per_op", ratio(d.busy, ops));
  out.put("svc.fast_path.hit_ratio", ratio(d.fast_hits, d.acquires));
  out.put("svc.attempts_per_op", ratio(d.acquires, ops));
  out.put("svc.short_circuit_per_op", ratio(d.short_circuits, ops));
  out.put("election.messages_per_acquire", ratio(d.messages, d.acquires));
  out.put("mt.messages_per_push", ratio(d.messages, d.pushes));
  out.put("obs.spans_per_op", ratio(d.spans, ops));

  char line[160];
  std::snprintf(line, sizeof line,
                "untraced: %.0f ops in %.2fs (%.0f/s), op p50 %.1fus p99 "
                "%.1fus, handoff p99 %.1fus",
                plain_ops, plain_s, plain_rate, op_p50, op_p99, handoff_p99);
  out.table.emplace_back(line);
  std::snprintf(line, sizeof line,
                "traced:   %.0f ops in %.2fs (%.0f/s), %zu sampled, op p50 "
                "%.1fus",
                traced_ops, traced_s, traced_rate, budget.ops(),
                budget.op_p50_us());
  out.table.emplace_back(line);
  out.table.emplace_back("layer self-time medians per sampled op (us):");
  const auto selfs = budget.layer_self_p50_us();
  for (const auto& layer : budget_layers()) {
    const auto it = selfs.find(layer);
    const double v = it == selfs.end() ? 0.0 : it->second;
    out.put("self." + layer + "_p50_us", v);
    std::snprintf(line, sizeof line, "  %-22s %10.2f", layer.c_str(), v);
    out.table.emplace_back(line);
  }
  std::snprintf(line, sizeof line, "  %-22s %10.2f   (traced op p50 %.2f)",
                "residual", budget.residual_p50_us(), budget.op_p50_us());
  out.table.emplace_back(line);
}

/// Builds setups_per_run fresh rigs, timing each build (setup_s is the
/// median), and measures each for an equal share of the run: several
/// independent set-ups per run average out what one set-up happens to
/// settle into. Rigs are torn down untimed, and the freed heap is handed
/// back before the next build, so `rss_mb` is one set-up's peak rather
/// than however the previous set-ups left the heap fragmented.
template <typename Rig>
double each_setup(const std::function<std::unique_ptr<Rig>(int)>& build,
                  const std::function<void(Rig&)>& measure) {
  std::vector<double> times;
  for (int i = 0; i < setups_per_run; ++i) {
    const std::uint64_t t0 = now_ns();
    std::unique_ptr<Rig> rig = build(i);
    times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    measure(*rig);
    rig.reset();
    ::malloc_trim(0);
  }
  return median(times);
}

/// Seed of a run's i-th set-up.
std::uint64_t setup_seed(std::uint64_t seed, int i) {
  return mix(seed, 0x736574, static_cast<std::uint64_t>(i));
}

// ---------------------------------------------------------------------
// tcp_fastpath.

struct fastpath_rig {
  std::unique_ptr<svc::service> service;
  std::unique_ptr<net::server> server;
  std::vector<conn_state> conns;

  ~fastpath_rig() {
    conns.clear();
    if (server) server->stop();
  }
};

std::unique_ptr<fastpath_rig> build_fastpath(std::uint64_t seed,
                                             result& res) {
  auto rig = std::make_unique<fastpath_rig>();
  svc::service_config sc;
  sc.nodes = 4;
  sc.shards = 8;
  sc.seed = mix(seed, 1);
  sc.default_strategy = election::strategy_kind::adaptive;
  rig->service = std::make_unique<svc::service>(std::move(sc));
  net::server_config nc;
  nc.reactors = 2;
  nc.executors = 4;
  // Deal connections to reactors round-robin: SO_REUSEPORT placement
  // hashes the client's ephemeral port, so it would differ per run.
  nc.reuseport = false;
  nc.max_inflight_per_connection = 2 * window;
  rig->server = std::make_unique<net::server>(*rig->service, nc);
  if (!rig->server->listening()) res.violate("server did not listen");
  rig->conns = open_connections(rig->server->port(), "fp",
                                fastpath_keys_per_conn, seed, res);
  return rig;
}

}  // namespace

void run_tcp_fastpath(const options& opts, result& out) {
  const double share = opts.seconds / setups_per_run;
  run_phases ph;
  const double setup_s = each_setup<fastpath_rig>(
      [&](int i) { return build_fastpath(setup_seed(opts.seed, i), out); },
      [&](fastpath_rig& rig) {
        if (!opts.trace) {
          ph.plain.push_back(
              run_pipeline_phase(rig.conns, share, false, nullptr));
          return;
        }
        const counters before = read_counters(*rig.service, *rig.server);
        ph.plain.push_back(
            run_pipeline_phase(rig.conns, share / 2, false, nullptr));
        ph.traced.push_back(
            run_pipeline_phase(rig.conns, share / 2, true, nullptr));
        ph.counts.add(before, read_counters(*rig.service, *rig.server));
      });
  account(ph, out);
  if (!opts.trace) {
    put_end_to_end(ph, setup_s, out);
    return;
  }
  put_traced(ph, out);
  put_wire_costs("fp/0/0", out);
}

// ---------------------------------------------------------------------
// cluster3_commit.

namespace {

/// A 3-member cluster in one process, every member running `adaptive`.
/// Member 0 has the short election timeout, so it takes term 1; the
/// others wait long enough that a loaded box never times them out.
struct cluster_rig {
  repl::cluster_config base;
  std::vector<std::unique_ptr<svc::service>> services;
  std::vector<std::unique_ptr<repl::node>> nodes;
  std::vector<std::unique_ptr<net::server>> servers;
  std::vector<conn_state> conns;
  std::uint64_t seed = 0;
  int primary = -1;
  std::uint64_t term = 0;

  ~cluster_rig() {
    conns.clear();
    for (auto& s : servers) {
      if (s) s->stop();
    }
    for (auto& n : nodes) {
      if (n) n->stop();
    }
  }

  [[nodiscard]] int find_primary() const {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      if (nodes[i]->is_primary()) return static_cast<int>(i);
    }
    return -1;
  }
};

std::unique_ptr<cluster_rig> build_cluster(std::uint64_t seed,
                                           gate_timer* gate, result& res) {
  auto rig = std::make_unique<cluster_rig>();
  constexpr int members = 3;
  rig->seed = seed;
  rig->base.fence_bump = 1000;
  rig->base.heartbeat_ms = 25;
  rig->base.commit_wait_ms = 5000;
  rig->base.seed = mix(seed, 2);
  for (int i = 0; i < members; ++i) {
    rig->base.members.push_back({"127.0.0.1", reserve_port()});
  }
  rig->services.resize(members);
  rig->nodes.resize(members);
  rig->servers.resize(members);
  for (int i = 0; i < members; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    svc::service_config sc;
    sc.nodes = 2;
    sc.shards = 4;
    sc.seed = mix(seed, 3, idx);
    sc.default_strategy = election::strategy_kind::adaptive;
    sc.record_commands = true;
    sc.session_id_base = i << 24;
    rig->services[idx] = std::make_unique<svc::service>(std::move(sc));

    repl::cluster_config cc = rig->base;
    cc.self = i;
    cc.election_timeout_min_ms = i == 0 ? 100 : 2000;
    cc.election_timeout_max_ms = i == 0 ? 150 : 3000;
    rig->nodes[idx] = std::make_unique<repl::node>(cc, *rig->services[idx]);
    repl::node* node = rig->nodes[idx].get();
    node->start();
    if (gate != nullptr) {
      rig->services[idx]->set_commit_gate([node, gate](const std::string& k) {
        const std::uint64_t t0 = now_ns();
        const bool ok = node->wait_committed(k);
        gate->record(obs::current(), t0, now_ns());
        return ok;
      });
    }

    net::server_config nc;
    nc.port = rig->base.members[idx].port;
    nc.reactors = 1;
    nc.executors = 8;
    nc.max_inflight_per_connection = 2 * window;
    nc.cluster.is_primary = [node] { return node->is_primary(); };
    nc.cluster.primary_hint = [node] { return node->primary_endpoint(); };
    nc.cluster.peer = [node](const net::wire::request& r) {
      return node->handle_peer(r);
    };
    nc.cluster.status_json = [node] { return node->status_json(); };
    nc.cluster.prom_text = [node] { return node->prom_text(); };
    rig->servers[idx] =
        std::make_unique<net::server>(*rig->services[idx], nc);
    if (!rig->servers[idx]->listening()) res.violate("member did not listen");
  }
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while ((rig->primary = rig->find_primary()) < 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  if (rig->primary < 0) {
    res.violate("no primary elected within 10s");
    return rig;
  }
  const auto p = static_cast<std::size_t>(rig->primary);
  rig->conns = open_connections(rig->base.members[p].port, "c3",
                                cluster_keys_per_conn, seed, res);
  rig->term = rig->nodes[p]->current_term();
  return rig;
}

counters read_cluster_counters(cluster_rig& rig) {
  const auto p = static_cast<std::size_t>(rig.primary);
  counters c = read_counters(*rig.services[p], *rig.servers[p]);
  c.repl = rig.nodes[p]->counters();
  return c;
}

/// After the run drains: one primary and one term throughout, and every
/// member shows each sampled key at its predicted epoch with no holder.
void check_cluster_drained(cluster_rig& rig, result& out) {
  std::vector<std::uint64_t> terms;
  for (const auto& n : rig.nodes) terms.push_back(n->current_term());
  out.violate_all(checks::stable_primary(rig.primary, rig.find_primary(),
                                         rig.term, terms));
  std::mt19937_64 rng(mix(rig.seed, 0x696e7370));
  std::vector<std::pair<const std::string*, std::uint64_t>> sample;
  for (int i = 0; i < inspected_keys; ++i) {
    const conn_state& c = rig.conns[rng() % rig.conns.size()];
    const std::size_t k = rng() % c.keys.size();
    sample.emplace_back(&c.keys[k], c.releases[k]);
  }
  // Followers apply an entry once they learn it committed (the next
  // append or heartbeat); give them a few heartbeats to catch up.
  std::vector<std::string> problems;
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  do {
    problems.clear();
    for (std::size_t m = 0; m < rig.services.size(); ++m) {
      for (const auto& [key, want] : sample) {
        const auto view = rig.services[m]->registry().inspect(*key);
        if (!view.has_value()) {
          problems.push_back("member " + std::to_string(m) + " never saw " +
                             *key);
          continue;
        }
        const auto v = checks::member_key(static_cast<int>(m), *key, want,
                                          view->entry.epoch, view->leader);
        problems.insert(problems.end(), v.begin(), v.end());
      }
    }
    if (problems.empty()) break;
    std::this_thread::sleep_for(10ms);
  } while (std::chrono::steady_clock::now() < deadline);
  out.violate_all(problems);
}

}  // namespace

void run_cluster3_commit(const options& opts, result& out) {
  const double share = opts.seconds / setups_per_run;
  gate_timer gate;
  gate_timer* timed = opts.trace ? &gate : nullptr;
  std::vector<double> commit_waits;
  run_phases ph;
  const double setup_s = each_setup<cluster_rig>(
      [&](int i) {
        return build_cluster(setup_seed(opts.seed, i), timed, out);
      },
      [&](cluster_rig& rig) {
        if (rig.primary < 0) return;
        if (!opts.trace) {
          ph.plain.push_back(
              run_pipeline_phase(rig.conns, share, false, nullptr));
          check_cluster_drained(rig, out);
          return;
        }
        (void)gate.take_waits();  // drop the populate's waits
        const counters before = read_cluster_counters(rig);
        ph.plain.push_back(
            run_pipeline_phase(rig.conns, share / 2, false, nullptr));
        ph.traced.push_back(
            run_pipeline_phase(rig.conns, share / 2, true, &gate));
        ph.counts.add(before, read_cluster_counters(rig));
        const std::vector<double> waits = gate.take_waits();
        commit_waits.insert(commit_waits.end(), waits.begin(), waits.end());
        check_cluster_drained(rig, out);
      });
  account(ph, out);
  if (ph.plain.empty()) return;
  if (!opts.trace) {
    put_end_to_end(ph, setup_s, out);
    return;
  }
  put_traced(ph, out);
  put_wire_costs("c3/0/0", out);
  const delta& d = ph.counts;
  const double ops = ph.ops();
  out.put("repl.commit_wait_p50_us", median(commit_waits));
  out.put("repl.appends_per_op", ratio(d.appends, ops));
  out.put("repl.entries_per_append", ratio(d.entries, d.appends));
  out.put("repl.commit_timeouts", d.commit_timeouts);
  out.put("cmd.commands_per_op", ratio(d.commands, ops));
  out.put("cmd.retained_commands", d.retained);
}

// ---------------------------------------------------------------------
// tcp_handoff.

namespace {

const std::string hot_key = "hot/lock";
/// Contended pairs per client in each set-up's warm-up.
constexpr int warmup_pairs = 32;

struct handoff_rig {
  std::unique_ptr<svc::service> service;
  std::unique_ptr<net::server> server;
  std::vector<std::unique_ptr<api::client>> clients;

  ~handoff_rig() {
    clients.clear();
    if (server) server->stop();
  }
};

/// The api trace id of a call bracketed by the mints `lo` < id < `hi`:
/// the candidate whose api_call span hugs [t0, t1] closest. api::client
/// mints its own id per call, so the benchmark finds it this way
/// instead of choosing it.
std::vector<span> find_api_spans(std::uint64_t lo, std::uint64_t hi,
                                 std::uint64_t t0, std::uint64_t t1) {
  std::vector<span> best;
  std::uint64_t best_gap = ~0ull;
  for (std::uint64_t id = lo + 1; id < hi && id < lo + 32; ++id) {
    const auto spans = obs::collect(id);
    for (const obs::span& s : spans) {
      if (s.stage != obs::phase::api_call) continue;
      if (s.start_ns < t0 || s.end_ns > t1) continue;
      const std::uint64_t gap = (s.start_ns - t0) + (t1 - s.end_ns);
      if (gap < best_gap) {
        best_gap = gap;
        best.clear();
        for (const obs::span& x : spans) {
          best.push_back({kind_of(x.stage), x.start_ns, x.end_ns});
        }
      }
    }
  }
  return best;
}

struct handoff_sample {
  std::uint64_t m0 = 0, m1 = 0, m2 = 0, m3 = 0;  // bracketing mints
  std::uint64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;
};

void handoff_thread(api::client& client, int holder,
                    std::uint64_t deadline_ns, bool traced, bool time_calls,
                    std::uint64_t seed, thread_out& out,
                    std::vector<checks::grant>& grants) {
  std::mt19937_64 rng(seed);
  std::optional<handoff_sample> pending;
  const auto flush = [&] {
    if (!pending) return;
    const handoff_sample& s = *pending;
    std::vector<span> spans = {{span_kind::op, s.t0, s.t3},
                               {span_kind::api_call, s.t0, s.t1},
                               {span_kind::api_call, s.t2, s.t3}};
    for (const span& x : find_api_spans(s.m0, s.m1, s.t0, s.t1)) {
      spans.push_back(x);
    }
    for (const span& x : find_api_spans(s.m2, s.m3, s.t2, s.t3)) {
      spans.push_back(x);
    }
    out.traced.push_back(std::move(spans));
    pending.reset();
  };
  while (now_ns() < deadline_ns) {
    const bool sampled = traced && rng() % (trace_one_in / 8) == 0;
    handoff_sample s;
    if (sampled) s.m0 = obs::mint();
    s.t0 = now_ns();
    api::acquired got = client.acquire(hot_key);
    s.t1 = now_ns();
    if (sampled) s.m1 = obs::mint();
    if (got.status == api::acquire_status::rejected) {
      ++out.failed;
      break;
    }
    if (!got.won()) {
      out.violate({"blocking acquire returned " +
                   std::string(api::to_string(got.status))});
      break;
    }
    if (sampled) s.m2 = obs::mint();
    s.t2 = now_ns();
    const svc::lease_status st = got.lease.release();
    s.t3 = now_ns();
    if (sampled) s.m3 = obs::mint();
    if (st == svc::lease_status::connection_lost) {
      ++out.failed;
      break;
    }
    out.violate(checks::fenced_release(hot_key, got.epoch,
                                       st == svc::lease_status::ok));
    grants.push_back({holder, got.epoch, s.t1, s.t2, s.t3});
    ++out.ops;
    out.stats.count(s.t3);
    out.stats.add(op_series, s.t3, us_between(s.t0, s.t3));
    if (time_calls) {
      out.acquire_us.push_back(us_between(s.t0, s.t1));
      out.release_us.push_back(us_between(s.t2, s.t3));
    }
    flush();
    if (sampled) pending = s;
  }
  out.end_ns = now_ns();
  if (pending) {
    std::this_thread::sleep_for(2ms);
    flush();
  }
}

phase_out run_handoff_phase(handoff_rig& rig, double seconds, bool traced,
                            bool time_calls, std::uint64_t seed) {
  std::vector<std::vector<checks::grant>> grants(rig.clients.size());
  const double cpu0 = process_cpu_s();
  const std::uint64_t start = now_ns();
  std::vector<thread_out> outs =
      thread_outs(rig.clients.size(), start, seconds, seed);
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < rig.clients.size(); ++i) {
    threads.emplace_back([&, i] {
      handoff_thread(*rig.clients[i], static_cast<int>(i), deadline, traced,
                     time_calls, mix(seed, 0x686f, i), outs[i], grants[i]);
    });
  }
  for (auto& t : threads) t.join();
  phase_out p = merge(outs, start, seconds, cpu0);
  for (auto& g : grants) p.grants.insert(p.grants.end(), g.begin(), g.end());
  for (const auto& v : checks::handoff(p.grants)) p.violations.push_back(v);
  // The key has no leader from one holder's release ack until the next
  // holder's acquire returns.
  std::vector<checks::grant> by_epoch = p.grants;
  std::sort(by_epoch.begin(), by_epoch.end(),
            [](const auto& a, const auto& b) { return a.epoch < b.epoch; });
  for (std::size_t i = 1; i < by_epoch.size(); ++i) {
    p.stats.add(handoff_series, by_epoch[i].acquired_ns,
                us_between(by_epoch[i - 1].release_ack_ns,
                           by_epoch[i].acquired_ns));
  }
  return p;
}

std::unique_ptr<handoff_rig> build_handoff(std::uint64_t seed, result& res) {
  auto rig = std::make_unique<handoff_rig>();
  svc::service_config sc;
  sc.nodes = 4;
  sc.shards = 4;
  sc.seed = mix(seed, 4);
  sc.default_strategy = election::strategy_kind::adaptive;
  rig->service = std::make_unique<svc::service>(std::move(sc));
  net::server_config nc;
  nc.reactors = 2;
  nc.executors = 2;
  nc.reuseport = false;
  rig->server = std::make_unique<net::server>(*rig->service, nc);
  if (!rig->server->listening()) res.violate("server did not listen");
  for (int i = 0; i < connections; ++i) {
    rig->clients.push_back(
        std::make_unique<api::client>("127.0.0.1", rig->server->port()));
    if (!rig->clients.back()->connected()) {
      res.violate("api client could not connect");
    }
  }
  std::vector<std::thread> threads;
  for (auto& c : rig->clients) {
    threads.emplace_back([&c] {
      for (int i = 0; i < warmup_pairs; ++i) {
        api::acquired got = c->acquire(hot_key);
        if (got.won()) (void)got.lease.release();
      }
    });
  }
  for (auto& t : threads) t.join();
  return rig;
}

}  // namespace

void run_tcp_handoff(const options& opts, result& out) {
  const double share = opts.seconds / setups_per_run;
  run_phases ph;
  int index = 0;
  const double setup_s = each_setup<handoff_rig>(
      [&](int i) {
        index = i;
        return build_handoff(setup_seed(opts.seed, i), out);
      },
      [&](handoff_rig& rig) {
        const std::uint64_t seed = setup_seed(opts.seed, index);
        if (!opts.trace) {
          ph.plain.push_back(
              run_handoff_phase(rig, share, false, false, seed));
          return;
        }
        const counters before = read_counters(*rig.service, *rig.server);
        ph.plain.push_back(
            run_handoff_phase(rig, share / 2, false, true, seed));
        ph.traced.push_back(
            run_handoff_phase(rig, share / 2, true, false, mix(seed, 5)));
        ph.counts.add(before, read_counters(*rig.service, *rig.server));
      });
  account(ph, out);
  if (!opts.trace) {
    put_end_to_end(ph, setup_s, out);
    return;
  }
  put_traced(ph, out);
  put_wire_costs(hot_key, out);
  std::vector<double> acquire_us;
  std::vector<double> release_us;
  for (const auto& p : ph.plain) {
    acquire_us.insert(acquire_us.end(), p.acquire_us.begin(),
                      p.acquire_us.end());
    release_us.insert(release_us.end(), p.release_us.begin(),
                      p.release_us.end());
  }
  out.put("api.acquire_p50_us", median(acquire_us));
  out.put("api.release_p50_us", median(release_us));
}

}  // namespace perfbench
