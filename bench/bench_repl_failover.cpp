// What does replication cost, and how fast does the cluster recover?
//
// Three in-process scenarios run the same sequential workload — one
// net::client driving acquire/release pairs over loopback TCP — against
// progressively more machinery:
//
//   plain     svc::service + net::server, no cluster at all: the
//             pre-repl baseline every earlier bench measured.
//   cluster1  a 1-member repl cluster. Quorum is 1, so no peer round
//             trip happens — the delta over `plain` is the pure
//             commit-gate overhead (drain into the log, watermark
//             bookkeeping, the gate's own wake-up).
//   cluster3  a 3-member cluster (quorum 2): every grant and release
//             now waits for one follower to append before the client
//             is acked — the real price of surviving a primary crash.
//
// All three rows run the `adaptive` strategy: the sequential workload
// never contends, so every grant is the registry CAS and the deltas
// between rows measure replication, not protocol elections.
//
// The workload is sequential on purpose: each pair's latency is one
// full commit path with nothing pipelined in front of it, so p50/p99
// are commit-path latencies, not queueing artifacts. (Throughput under
// pipelining is bench_net_loopback's job.)
//
// The failover section answers the other question operators ask: after
// the primary dies, how long until someone else answers? Each trial
// builds a fresh 3-member cluster, acquires a lease through it, stops
// the primary's server and node in-process (the repl threads die
// mid-heartbeat, like a SIGKILL without the process teardown), and
// polls the survivors until one reports is_primary. Member 0 always
// wins the first term (it gets the short election timeout), so every
// trial measures the same thing: the survivors' 400–700ms randomized
// timeout plus one election round.
//
// Acceptance gate (enforced): only the plain baseline's throughput —
// >= 2000 pairs/s (>= 300 under --smoke). It is a collapse detector
// for the non-cluster path, deliberately generous: cluster numbers
// and failover times are reported, not gated, because they hinge on
// timer constants and CI scheduling jitter, and the ISSUE's contract
// is "clustering must not tax users who don't turn it on".
//
// Build & run:  ./build/bench/bench_repl_failover [--smoke] [--seed S]
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "repl/config.hpp"
#include "repl/node.hpp"
#include "svc/service.hpp"

namespace {

using namespace elect;
using namespace std::chrono_literals;

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

/// An n-member cluster in one process (n == 1 is legal and means
/// quorum 1). Mirrors the test harness in tests/test_repl.cpp: member
/// 0 gets the short election timeout so it reliably takes term 1.
struct cluster {
  explicit cluster(int n, std::uint64_t seed) {
    base.fence_bump = 1000;
    base.heartbeat_ms = 25;
    base.commit_wait_ms = 5000;
    base.seed = seed;
    for (int i = 0; i < n; ++i) {
      base.members.push_back({"127.0.0.1", reserve_port()});
    }
    services.resize(static_cast<std::size_t>(n));
    nodes.resize(static_cast<std::size_t>(n));
    servers.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) start_member(i);
  }

  ~cluster() {
    for (auto& s : servers) {
      if (s) s->stop();
    }
    for (auto& m : nodes) {
      if (m) m->stop();
    }
  }

  void start_member(int i) {
    const auto idx = static_cast<std::size_t>(i);
    svc::service_config sc{.nodes = 4, .shards = 4};
    sc.default_strategy = election::strategy_kind::adaptive;
    sc.record_commands = true;
    sc.session_id_base = static_cast<std::uint64_t>(i) << 24;
    services[idx] = std::make_unique<svc::service>(std::move(sc));

    repl::cluster_config cc = base;
    cc.self = i;
    cc.election_timeout_min_ms = i == 0 ? 100 : 400;
    cc.election_timeout_max_ms = i == 0 ? 150 : 700;
    nodes[idx] = std::make_unique<repl::node>(cc, *services[idx]);
    nodes[idx]->start();

    net::server_config nc;
    nc.bind_address = "127.0.0.1";
    nc.port = base.members[idx].port;
    repl::node* node = nodes[idx].get();
    nc.cluster.is_primary = [node] { return node->is_primary(); };
    nc.cluster.primary_hint = [node] { return node->primary_endpoint(); };
    nc.cluster.peer = [node](const net::wire::request& r) {
      return node->handle_peer(r);
    };
    nc.cluster.status_json = [node] { return node->status_json(); };
    nc.cluster.prom_text = [node] { return node->prom_text(); };
    servers[idx] = std::make_unique<net::server>(*services[idx], nc);
  }

  void stop_member(int i) {
    const auto idx = static_cast<std::size_t>(i);
    servers[idx]->stop();
    nodes[idx]->stop();
    stopped.push_back(i);
  }

  /// Live primary's member index, -1 if none. Stopped members report a
  /// stale in-memory role, so they are skipped.
  [[nodiscard]] int primary() const {
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const int m = static_cast<int>(i);
      if (std::find(stopped.begin(), stopped.end(), m) != stopped.end()) {
        continue;
      }
      if (nodes[i]->is_primary()) return m;
    }
    return -1;
  }

  [[nodiscard]] int wait_for_primary(std::chrono::milliseconds limit) const {
    const auto deadline = std::chrono::steady_clock::now() + limit;
    while (std::chrono::steady_clock::now() < deadline) {
      const int p = primary();
      if (p >= 0) return p;
      std::this_thread::sleep_for(5ms);
    }
    return -1;
  }

  [[nodiscard]] std::string endpoints_csv() const {
    std::string out;
    for (const auto& m : base.members) {
      if (!out.empty()) out += ",";
      out += m.to_string();
    }
    return out;
  }

  repl::cluster_config base;
  std::vector<int> stopped;
  std::vector<std::unique_ptr<svc::service>> services;
  std::vector<std::unique_ptr<repl::node>> nodes;
  std::vector<std::unique_ptr<net::server>> servers;
};

struct pair_stats {
  std::uint64_t pairs = 0;
  double seconds = 0.0;
  double pairs_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t lost = 0;  // pairs where the acquire did not win
};

/// Drive `pairs` sequential acquire/release pairs over disjoint keys
/// through `endpoints`. Every acquire is expected to win (keys are
/// uncontended); a loss or connection error counts in `lost`.
pair_stats run_pairs(const std::string& endpoints, std::uint64_t pairs,
                     const char* label) {
  net::client client(endpoints);
  if (!client.connected()) {
    std::fprintf(stderr, "[%s] client failed to connect to %s\n", label,
                 endpoints.c_str());
    return {};
  }

  // Warm-up: first ops pay connection/election setup, keep them out of
  // the timed window.
  for (int i = 0; i < 8; ++i) {
    const std::string key = std::string(label) + "/warm/" + std::to_string(i);
    const auto a = client.try_acquire(key);
    if (a.won) (void)client.release(key, a.epoch);
  }

  pair_stats stats;
  std::vector<double> lat_us;
  lat_us.reserve(pairs);
  bench::stopwatch total;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    const std::string key = std::string(label) + "/k" + std::to_string(i);
    bench::stopwatch one;
    const auto a = client.try_acquire(key);
    if (!a.won) {
      ++stats.lost;
      continue;
    }
    (void)client.release(key, a.epoch);
    lat_us.push_back(one.seconds() * 1e6);
  }
  stats.seconds = total.seconds();
  stats.pairs = pairs - stats.lost;
  stats.pairs_per_s =
      stats.seconds > 0 ? static_cast<double>(stats.pairs) / stats.seconds
                        : 0.0;
  stats.p50_us = bench::percentile(lat_us, 0.50);
  stats.p99_us = bench::percentile(lat_us, 0.99);
  std::printf(
      "[%s] %llu pairs in %.3fs — %.0f pairs/s, p50 %.1fus, p99 %.1fus, "
      "lost %llu\n",
      label, static_cast<unsigned long long>(stats.pairs), stats.seconds,
      stats.pairs_per_s, stats.p50_us, stats.p99_us,
      static_cast<unsigned long long>(stats.lost));
  return stats;
}

std::string stats_json(const pair_stats& s) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"pairs\":%llu,\"seconds\":%.6f,\"pairs_per_s\":%.1f,"
                "\"p50_us\":%.1f,\"p99_us\":%.1f,\"lost\":%llu}",
                static_cast<unsigned long long>(s.pairs), s.seconds,
                s.pairs_per_s, s.p50_us, s.p99_us,
                static_cast<unsigned long long>(s.lost));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  const std::uint64_t seed = bench::parse_seed(argc, argv, 42);
  const std::uint64_t pairs = smoke ? 300 : 2000;
  const int failover_trials = smoke ? 2 : 5;

  bench::json_emitter json("repl_failover");
  json.meta_field("seed", static_cast<std::int64_t>(seed));
  json.meta_field("smoke", smoke);
  json.meta_field("pairs_per_scenario", static_cast<std::int64_t>(pairs));
  json.meta_field("failover_trials",
                  static_cast<std::int64_t>(failover_trials));

  // --- plain: no cluster, the baseline the gate protects. -------------
  pair_stats plain;
  {
    svc::service_config sc{.nodes = 4, .shards = 4};
    sc.default_strategy = election::strategy_kind::adaptive;
    svc::service service(std::move(sc));
    net::server_config nc;
    nc.bind_address = "127.0.0.1";
    nc.port = reserve_port();
    net::server server(service, nc);
    if (!server.listening()) {
      std::fprintf(stderr, "plain server failed to listen\n");
      return 1;
    }
    plain = run_pairs("127.0.0.1:" + std::to_string(nc.port), pairs, "plain");
  }
  json.raw("plain", stats_json(plain));

  // --- cluster1: quorum 1, commit gate only. --------------------------
  pair_stats c1;
  {
    cluster one(1, seed);
    if (one.wait_for_primary(10s) < 0) {
      std::fprintf(stderr, "cluster1 never elected a primary\n");
      return 1;
    }
    c1 = run_pairs(one.endpoints_csv(), pairs, "cluster1");
  }
  json.raw("cluster1", stats_json(c1));

  // --- cluster3: quorum 2, one follower round trip per commit. --------
  pair_stats c3;
  {
    cluster three(3, seed);
    if (three.wait_for_primary(10s) < 0) {
      std::fprintf(stderr, "cluster3 never elected a primary\n");
      return 1;
    }
    c3 = run_pairs(three.endpoints_csv(), pairs, "cluster3");
  }
  json.raw("cluster3", stats_json(c3));

  if (plain.pairs_per_s > 0) {
    json.field("cluster1_overhead_x", c1.pairs_per_s > 0
                                          ? plain.pairs_per_s / c1.pairs_per_s
                                          : 0.0);
    json.field("cluster3_overhead_x", c3.pairs_per_s > 0
                                          ? plain.pairs_per_s / c3.pairs_per_s
                                          : 0.0);
  }

  // --- failover: hard-stop the primary, time the succession. ----------
  std::vector<double> failover_ms;
  for (int t = 0; t < failover_trials; ++t) {
    cluster three(3, seed + static_cast<std::uint64_t>(t) * 1000003);
    const int p = three.wait_for_primary(10s);
    if (p < 0) {
      std::fprintf(stderr, "failover trial %d: no initial primary\n", t);
      return 1;
    }
    // A held lease rides through the crash so the trial exercises the
    // fence path, not an empty registry.
    net::client client(three.endpoints_csv());
    const auto held = client.try_acquire("failover/held");
    if (!held.won) {
      std::fprintf(stderr, "failover trial %d: setup acquire lost\n", t);
      return 1;
    }
    bench::stopwatch sw;
    three.stop_member(p);
    const int np = three.wait_for_primary(10s);
    if (np < 0) {
      std::fprintf(stderr, "failover trial %d: no new primary\n", t);
      return 1;
    }
    const double ms = sw.seconds() * 1e3;
    failover_ms.push_back(ms);
    std::printf("[failover] trial %d: member %d -> member %d in %.0fms\n", t,
                p, np, ms);
  }
  {
    std::string arr = "[";
    for (std::size_t i = 0; i < failover_ms.size(); ++i) {
      if (i > 0) arr += ",";
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.1f", failover_ms[i]);
      arr += buf;
    }
    arr += "]";
    json.raw("failover_ms", arr);
    json.field("failover_max_ms", bench::percentile(failover_ms, 1.0));
  }

  json.write();

  const double floor = smoke ? 300.0 : 2000.0;
  if (plain.pairs_per_s < floor || plain.lost > 0) {
    std::fprintf(stderr,
                 "GATE FAILED: plain baseline %.0f pairs/s (floor %.0f), "
                 "%llu lost\n",
                 plain.pairs_per_s, floor,
                 static_cast<unsigned long long>(plain.lost));
    return 1;
  }
  std::printf("gate ok: plain %.0f pairs/s >= %.0f\n", plain.pairs_per_s,
              floor);
  return 0;
}
