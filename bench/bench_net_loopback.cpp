// Wire-level load generator for elect::net: an in-process server over a
// loopback TCP socket, hammered by C client connections each keeping a
// window of P requests pipelined.
//
// The unit of work is one acquire/release *pair* (what a remote lock
// user does per critical section): a try_acquire round-trip followed by
// a fenced release round-trip. Each connection owns P disjoint keys and
// drives them in lockstep windows — P acquires submitted back-to-back,
// completed, then P releases — so the socket always carries a deep
// pipeline but a release never overtakes its own acquire.
//
// Keys are disjoint per connection: with the adaptive strategy every
// epoch is granted by the registry CAS, so the numbers measure the
// network edge (framing, epoll batching, dispatch, response path)
// rather than distributed-election cost — which is exactly what this
// bench exists to track. The "rtt p50/p99 ms" columns are the client-
// observed round trip of every request, submit to response, taken from
// the bench's own samples. The sweep varies reactors (the multi-reactor
// scaling story), connections, pipeline depth, and client stripes; the
// acceptance row is 32 connections at the default depth on 4 reactors,
// and multi_reactor_speedup reports the 4-reactor/1-reactor ratio
// (reported, not gated: on a 1-core CI box the reactors time-slice one
// CPU and the ratio is noise; on real hardware it should clear 3x).
//
// The fanout mode (always run; size it with --watchers N) measures the
// watch-push fast lane: N raw-socket subscribers watch ONE key, a
// driver client releases it, and the bench reports the p50/p99 of
// release-to-push-receipt across all watchers and rounds — the
// "everyone learns the leader died" latency at scale.
//
// Acceptance gate (enforced): >= 50k pairs/s on the 4-reactor
// 32-connection row (>= 5k under --smoke, where op counts shrink and
// CI machines vary), and zero lost acquires everywhere.
//
// Build & run:
//   ./build/bench/bench_net_loopback [--smoke] [--watchers N] [--seed S]
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "exp/table.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "svc/service.hpp"

namespace {

using namespace elect;

// Service PRNG seed for both experiments; `--seed N` overrides (the
// historical default 3 keeps unseeded runs comparable to earlier
// BENCH_net_loopback.json artifacts). File-scope because the two
// run_* functions build their own service_config.
std::uint64_t bench_seed = 3;

struct sweep_row {
  int reactors = 1;
  int stripes = 1;  // connections per net::client
  int connections = 0;
  int pipeline = 0;
  int rounds = 0;  // windows per connection; pairs = rounds * pipeline
};

struct sweep_result {
  double seconds = 0.0;
  std::uint64_t pairs = 0;
  double pairs_per_s = 0.0;
  std::uint64_t lost = 0;  // acquires that did not win (must stay 0)
  /// Client-observed round trip of each request (submit to response).
  double rtt_p50_ms = 0.0;
  double rtt_p99_ms = 0.0;
  net::net_report net;
};

sweep_result run_sweep(const sweep_row& row) {
  svc::service_config service_config{.nodes = 8, .shards = 8, .seed = bench_seed};
  // Adaptive: disjoint keys ride the CAS fast path, so the wire is the
  // thing under test, not the election ladder.
  service_config.default_strategy = election::strategy_kind::adaptive;
  svc::service service(std::move(service_config));
  net::server_config server_config;
  server_config.executors = 8;
  server_config.reactors = row.reactors;
  server_config.max_inflight_per_connection = 2 * row.pipeline;
  net::server server(service, std::move(server_config));
  ELECT_CHECK_MSG(server.listening(), "loopback bind failed");

  std::vector<std::unique_ptr<net::client>> clients;
  clients.reserve(static_cast<std::size_t>(row.connections));
  for (int c = 0; c < row.connections; ++c) {
    clients.push_back(std::make_unique<net::client>(
        "127.0.0.1", server.port(), row.stripes));
    ELECT_CHECK_MSG(clients.back()->connected(), "client connect failed");
  }

  std::atomic<bool> go{false};
  std::atomic<std::uint64_t> lost{0};
  std::vector<std::vector<double>> rtt_ms(
      static_cast<std::size_t>(row.connections));
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(row.connections));
  for (int c = 0; c < row.connections; ++c) {
    threads.emplace_back([&, c] {
      net::client& client = *clients[static_cast<std::size_t>(c)];
      std::vector<double>& rtts = rtt_ms[static_cast<std::size_t>(c)];
      rtts.reserve(2 * static_cast<std::size_t>(row.rounds) *
                   static_cast<std::size_t>(row.pipeline));
      std::vector<std::chrono::steady_clock::time_point> sent(
          static_cast<std::size_t>(row.pipeline));
      const auto stamp_rtt = [&](std::size_t i) {
        rtts.push_back(std::chrono::duration<double, std::milli>(
                           std::chrono::steady_clock::now() - sent[i])
                           .count());
      };
      std::vector<std::string> keys;
      std::vector<std::uint64_t> ids(static_cast<std::size_t>(row.pipeline));
      std::vector<std::uint64_t> epochs(
          static_cast<std::size_t>(row.pipeline));
      for (int p = 0; p < row.pipeline; ++p) {
        keys.push_back("loop/" + std::to_string(c) + "/" +
                       std::to_string(p));
      }
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int round = 0; round < row.rounds; ++round) {
        for (int p = 0; p < row.pipeline; ++p) {
          const auto i = static_cast<std::size_t>(p);
          sent[i] = std::chrono::steady_clock::now();
          ids[i] = client.submit(net::wire::op::try_acquire, keys[i]);
        }
        for (int p = 0; p < row.pipeline; ++p) {
          const auto i = static_cast<std::size_t>(p);
          const auto r = client.take(ids[i]);
          stamp_rtt(i);
          if (!r.has_value() || !r->won()) {
            lost.fetch_add(1, std::memory_order_relaxed);
            epochs[i] = ~0ull;
            continue;
          }
          epochs[i] = r->epoch;
        }
        for (int p = 0; p < row.pipeline; ++p) {
          const auto i = static_cast<std::size_t>(p);
          sent[i] = std::chrono::steady_clock::now();
          ids[i] = epochs[i] == ~0ull
                       ? 0
                       : client.submit(net::wire::op::release_fenced, keys[i],
                                       epochs[i]);
        }
        for (int p = 0; p < row.pipeline; ++p) {
          const auto i = static_cast<std::size_t>(p);
          if (ids[i] == 0) continue;
          (void)client.take(ids[i]);
          stamp_rtt(i);
        }
      }
    });
  }

  bench::stopwatch timer;
  go.store(true, std::memory_order_release);
  for (auto& t : threads) t.join();
  const double seconds = timer.seconds();

  sweep_result result;
  result.seconds = seconds;
  result.pairs = static_cast<std::uint64_t>(row.connections) *
                 static_cast<std::uint64_t>(row.rounds) *
                 static_cast<std::uint64_t>(row.pipeline);
  result.pairs_per_s = static_cast<double>(result.pairs) / seconds;
  result.lost = lost.load();
  std::vector<double> all_rtt_ms;
  for (const auto& rtts : rtt_ms) {
    all_rtt_ms.insert(all_rtt_ms.end(), rtts.begin(), rtts.end());
  }
  result.rtt_p50_ms = bench::percentile(all_rtt_ms, 0.50);
  result.rtt_p99_ms = bench::percentile(all_rtt_ms, 0.99);
  result.net = server.report();
  clients.clear();
  server.stop();
  return result;
}

// ---------------------------------------------------------------------
// Watch-fanout mode: N raw-socket watchers on one key, event-delivery
// latency measured from the driver's release to each watcher's receipt.

struct fanout_result {
  int watchers = 0;
  int rounds = 0;
  std::uint64_t received = 0;  // released-events collected (want W*R)
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double events_per_s = 0.0;  // push throughput during collection
  net::net_report net;
};

/// Blocking connect + hello + watch handshake for one raw watcher
/// socket. Returns the connected fd (made non-blocking), or -1.
int connect_watcher(std::uint16_t port, const std::string& key) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr) != 1 ||
      ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  const auto roundtrip = [fd](const net::wire::request& req)
      -> std::optional<net::wire::response> {
    const auto frame = net::wire::encode_request(req);
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t wrote =
          ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
      if (wrote <= 0) {
        if (wrote < 0 && errno == EINTR) continue;
        return std::nullopt;
      }
      sent += static_cast<std::size_t>(wrote);
    }
    net::wire::frame_reader reader;
    std::uint8_t buffer[4096];
    for (;;) {
      const ssize_t got = ::recv(fd, buffer, sizeof buffer, 0);
      if (got <= 0) {
        if (got < 0 && errno == EINTR) continue;
        return std::nullopt;
      }
      if (!reader.feed(buffer, static_cast<std::size_t>(got))) {
        return std::nullopt;
      }
      if (auto body = reader.next()) return net::wire::decode_response(*body);
    }
  };

  net::wire::request hello = net::wire::make_hello_request();
  hello.id = 1;
  auto answer = roundtrip(hello);
  if (!answer.has_value() || answer->result != net::wire::status::ok) {
    ::close(fd);
    return -1;
  }
  net::wire::request watch;
  watch.id = 2;
  watch.kind = net::wire::op::watch;
  watch.key = key;
  answer = roundtrip(watch);
  if (!answer.has_value() || answer->result != net::wire::status::ok) {
    ::close(fd);
    return -1;
  }
  const int fl = ::fcntl(fd, F_GETFL, 0);
  (void)::fcntl(fd, F_SETFL, fl | O_NONBLOCK);
  return fd;
}

fanout_result run_fanout(int want_watchers, int rounds) {
  // Each watcher costs two fds (client socket + server connection, same
  // process); raise the limit to the hard cap and clamp the fleet to
  // what fits with headroom for the server's own descriptors.
  rlimit lim{};
  if (::getrlimit(RLIMIT_NOFILE, &lim) == 0 && lim.rlim_cur < lim.rlim_max) {
    lim.rlim_cur = lim.rlim_max;
    (void)::setrlimit(RLIMIT_NOFILE, &lim);
    (void)::getrlimit(RLIMIT_NOFILE, &lim);
  }
  const auto fd_budget = static_cast<long>(
      std::min<rlim_t>(lim.rlim_cur, 1u << 20));
  const int watchers = static_cast<int>(
      std::min<long>(want_watchers, std::max<long>(1, (fd_budget - 256) / 2)));

  svc::service_config service_config{.nodes = 8, .shards = 8, .seed = bench_seed};
  service_config.default_strategy = election::strategy_kind::adaptive;
  svc::service service(std::move(service_config));
  net::server_config server_config;
  server_config.executors = 4;
  server_config.max_connections = watchers + 64;
  server_config.max_watches_per_connection = 4;
  net::server server(service, std::move(server_config));
  ELECT_CHECK_MSG(server.listening(), "loopback bind failed");

  const std::string key = "fan/key";
  const int epfd = ::epoll_create1(EPOLL_CLOEXEC);
  ELECT_CHECK_MSG(epfd >= 0, "epoll_create1 failed");
  std::vector<int> fds;
  std::vector<net::wire::frame_reader> readers(
      static_cast<std::size_t>(watchers));
  fds.reserve(static_cast<std::size_t>(watchers));
  for (int w = 0; w < watchers; ++w) {
    const int fd = connect_watcher(server.port(), key);
    ELECT_CHECK_MSG(fd >= 0, "watcher connect failed");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u32 = static_cast<std::uint32_t>(w);
    ELECT_CHECK_MSG(::epoll_ctl(epfd, EPOLL_CTL_ADD, fd, &ev) == 0,
                    "watcher epoll add failed");
    fds.push_back(fd);
  }

  net::client driver("127.0.0.1", server.port());
  ELECT_CHECK_MSG(driver.connected(), "driver connect failed");

  // Collect event frames across all watcher sockets until `elected` and
  // `released` counts each reach `want` or the deadline passes. Returns
  // receipt timestamps of `released` events.
  const auto collect = [&](std::uint64_t want,
                           std::vector<std::chrono::steady_clock::time_point>*
                               released_at) -> std::uint64_t {
    std::uint64_t elected = 0;
    std::uint64_t released = 0;
    epoll_event events[256];
    std::uint8_t buffer[64 * 1024];
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while ((elected < want || released < want) &&
           std::chrono::steady_clock::now() < deadline) {
      const int ready = ::epoll_wait(epfd, events, 256, 1000);
      for (int i = 0; i < ready; ++i) {
        const auto w = static_cast<std::size_t>(events[i].data.u32);
        for (;;) {
          const ssize_t got = ::recv(fds[w], buffer, sizeof buffer, 0);
          if (got <= 0) break;  // EAGAIN (or a dead socket: the count
                                // shortfall reports it)
          const auto stamp = std::chrono::steady_clock::now();
          ELECT_CHECK_MSG(
              readers[w].feed(buffer, static_cast<std::size_t>(got)),
              "watcher deframe failed");
          while (auto body = readers[w].next()) {
            const auto r = net::wire::decode_response(*body);
            if (!r.has_value()) continue;
            const auto e = net::wire::parse_event(*r);
            if (!e.has_value()) continue;
            if (e->kind == svc::transition::elected) {
              ++elected;
            } else if (e->kind == svc::transition::released) {
              ++released;
              if (released_at != nullptr) released_at->push_back(stamp);
            }
          }
        }
      }
    }
    return released;
  };

  std::vector<double> latencies_ms;
  latencies_ms.reserve(static_cast<std::size_t>(watchers) *
                       static_cast<std::size_t>(rounds));
  std::uint64_t received = 0;
  bench::stopwatch total;
  for (int round = 0; round < rounds; ++round) {
    const auto acquired = driver.try_acquire(key);
    ELECT_CHECK_MSG(acquired.won, "driver acquire lost");
    // The release is the measured edge: one wire op fans out to every
    // watcher; each receipt's latency is stamped against t0.
    std::vector<std::chrono::steady_clock::time_point> released_at;
    released_at.reserve(static_cast<std::size_t>(watchers));
    const auto t0 = std::chrono::steady_clock::now();
    (void)driver.release(key, acquired.epoch);
    received += collect(static_cast<std::uint64_t>(watchers), &released_at);
    for (const auto& stamp : released_at) {
      latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(stamp - t0).count());
    }
  }
  const double seconds = total.seconds();

  fanout_result result;
  result.watchers = watchers;
  result.rounds = rounds;
  result.received = received;
  result.net = server.report();
  result.p50_ms = bench::percentile(latencies_ms, 0.50);
  result.p99_ms = bench::percentile(latencies_ms, 0.99);
  // Throughput over the whole run (both transitions pushed per round).
  result.events_per_s =
      static_cast<double>(2 * received) / std::max(seconds, 1e-9);

  driver.close();
  for (const int fd : fds) ::close(fd);
  ::close(epfd);
  server.stop();
  return result;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  int watchers_arg = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
    if (std::strcmp(argv[i], "--watchers") == 0 && i + 1 < argc) {
      watchers_arg = std::atoi(argv[i + 1]);
      ++i;
    }
  }
  const int rounds = smoke ? 40 : 400;
  bench_seed = bench::parse_seed(argc, argv, bench_seed);

  bench::print_header(
      "E11", "Wire-level loopback throughput (elect::net)",
      "the network edge must not eat the fast path: pipelined remote "
      "acquire/release pairs ride the adaptive CAS with no distributed "
      "protocol, so loopback throughput is bounded by framing + epoll "
      "batching, not elections — and with N reactors, by N of them");

  const std::vector<sweep_row> rows = {
      {/*reactors=*/1, /*stripes=*/1, /*connections=*/1, /*pipeline=*/8,
       rounds},
      {/*reactors=*/1, /*stripes=*/1, /*connections=*/32, /*pipeline=*/8,
       rounds},  // single-reactor baseline
      {/*reactors=*/2, /*stripes=*/1, /*connections=*/32, /*pipeline=*/8,
       rounds},
      {/*reactors=*/4, /*stripes=*/1, /*connections=*/32, /*pipeline=*/8,
       rounds},  // acceptance row
      {/*reactors=*/4, /*stripes=*/4, /*connections=*/8, /*pipeline=*/8,
       rounds},  // striped clients: 8 clients x 4 stripes = 32 sockets
  };

  exp::table table({"reactors", "stripes", "conns", "pipeline", "pairs",
                    "pairs/s", "rtt p50 ms", "rtt p99 ms", "writev",
                    "frames/writev", "lost", "sec"});
  bench::json_emitter json("net_loopback");
  json.meta_field("smoke", smoke);
  json.meta_field("seed", static_cast<std::int64_t>(bench_seed));
  json.meta_field("rounds_per_connection", static_cast<std::int64_t>(rounds));

  double baseline_pairs_per_s = 0.0;
  double acceptance_pairs_per_s = 0.0;
  std::string acceptance_net_json;
  std::uint64_t total_lost = 0;
  for (const sweep_row& row : rows) {
    const sweep_result result = run_sweep(row);
    total_lost += result.lost;
    const double coalesce =
        result.net.writev_calls == 0
            ? 0.0
            : static_cast<double>(result.net.frames_flushed) /
                  static_cast<double>(result.net.writev_calls);
    table.add_row({std::to_string(row.reactors), std::to_string(row.stripes),
                   std::to_string(row.connections),
                   std::to_string(row.pipeline), std::to_string(result.pairs),
                   exp::fmt_int(result.pairs_per_s),
                   exp::fmt(result.rtt_p50_ms, 3),
                   exp::fmt(result.rtt_p99_ms, 3),
                   std::to_string(result.net.writev_calls),
                   exp::fmt(coalesce, 1), std::to_string(result.lost),
                   exp::fmt(result.seconds, 2)});
    if (row.reactors == 1 && row.connections == 32 && row.stripes == 1) {
      baseline_pairs_per_s = result.pairs_per_s;
    }
    if (row.reactors == 4 && row.connections == 32 && row.stripes == 1) {
      acceptance_pairs_per_s = result.pairs_per_s;
      acceptance_net_json = result.net.to_json();
    }
  }

  table.print(std::cout);
  const double speedup = baseline_pairs_per_s <= 0.0
                             ? 0.0
                             : acceptance_pairs_per_s / baseline_pairs_per_s;
  std::cout << "\n4-reactor 32-connection row: "
            << exp::fmt_int(acceptance_pairs_per_s)
            << " acquire/release pairs/s (acceptance gate: >= "
            << (smoke ? "5k smoke" : "50k") << "); "
            << exp::fmt(speedup, 2)
            << "x the single-reactor row (reported, not gated: "
            << std::thread::hardware_concurrency() << " cores here)\n";

  // Fanout mode: 1 key, many watchers, release-to-receipt latency.
  const int fanout_watchers =
      watchers_arg > 0 ? watchers_arg : (smoke ? 500 : 10'000);
  const int fanout_rounds = smoke ? 10 : 20;
  const fanout_result fan = run_fanout(fanout_watchers, fanout_rounds);
  std::cout << "\nwatch fanout: " << fan.watchers << " watchers on 1 key, "
            << fan.rounds << " release rounds -> delivery p50 "
            << exp::fmt(fan.p50_ms, 3) << " ms, p99 "
            << exp::fmt(fan.p99_ms, 3) << " ms, "
            << exp::fmt_int(fan.events_per_s) << " events/s pushed ("
            << fan.received << "/"
            << static_cast<std::uint64_t>(fan.watchers) *
                   static_cast<std::uint64_t>(fan.rounds)
            << " released events received)\n";

  json.table("sweep", table);
  json.field("baseline_pairs_per_s", baseline_pairs_per_s);
  json.field("acceptance_pairs_per_s", acceptance_pairs_per_s);
  json.field("multi_reactor_speedup", speedup);
  json.field("lost_acquires", total_lost);
  if (!acceptance_net_json.empty()) {
    // Carries the per-reactor rows (connections / accepted / wakeups /
    // writev / frames_flushed / drain_batches / requests per reactor).
    json.raw("acceptance_net", acceptance_net_json);
  }
  json.field("fanout_watchers", static_cast<std::int64_t>(fan.watchers));
  json.field("fanout_rounds", static_cast<std::int64_t>(fan.rounds));
  json.field("fanout_received", fan.received);
  json.field("fanout_delivery_p50_ms", fan.p50_ms);
  json.field("fanout_delivery_p99_ms", fan.p99_ms);
  json.field("fanout_events_per_s", fan.events_per_s);
  json.raw("fanout_net", fan.net.to_json());
  json.write();

  // Disjoint keys: every acquire must win; a loss is a correctness bug
  // (or a protocol error), not noise.
  if (total_lost != 0) {
    std::cout << "FAILURE: " << total_lost
              << " lost acquires on disjoint keys\n";
    return 1;
  }
  // Every watcher must hear every release — the fanout lane drops
  // events only for dead or wedged consumers, and this bench has
  // neither.
  if (fan.received != static_cast<std::uint64_t>(fan.watchers) *
                          static_cast<std::uint64_t>(fan.rounds)) {
    std::cout << "FANOUT FAILURE: missing released events\n";
    return 1;
  }
  // The gate is enforced, not just printed — a regression that drags the
  // wire below it turns the bench (and the CI smoke step) red. Smoke
  // machines vary wildly, so the smoke gate only catches collapses.
  const double gate = smoke ? 5'000.0 : 50'000.0;
  if (acceptance_pairs_per_s < gate) {
    std::cout << "ACCEPTANCE FAILURE: " << exp::fmt_int(acceptance_pairs_per_s)
              << " pairs/s < " << exp::fmt_int(gate) << "\n";
    return 1;
  }
  return 0;
}
