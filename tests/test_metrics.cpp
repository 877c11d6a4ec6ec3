// /metrics and /report are two renderings of one declaration per report
// type (obs/series.hpp). These tests hold a live server to that: the
// Prometheus series and the numeric leaves of the JSON report are the
// same set under the naming rule, every family carries HELP and TYPE,
// and README's metrics table lists exactly the families /metrics emits.
// Plus unit tests of the writer's two formats.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_parser.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "obs/series.hpp"
#include "repl/node.hpp"
#include "svc/service.hpp"

namespace elect {
namespace {

using namespace std::chrono_literals;

// ---------------------------------------------------------------------
// The writer on its own.

TEST(SeriesWriter, PrometheusNamesFollowTheJsonPath) {
  obs::series_writer w(obs::series_writer::format::prometheus);
  w.counter("acquires", "Acquires.", 3);
  w.section("net", [&] {
    w.gauge("ratio", "A ratio.", 0.25);
    w.flag("on", "A flag.", true);
    w.text("role", "primary");  // JSON-only
  });
  EXPECT_EQ(w.take(),
            "# HELP elect_acquires_total Acquires.\n"
            "# TYPE elect_acquires_total counter\n"
            "elect_acquires_total 3\n"
            "# HELP elect_net_ratio A ratio.\n"
            "# TYPE elect_net_ratio gauge\n"
            "elect_net_ratio 0.25\n"
            "# HELP elect_net_on A flag.\n"
            "# TYPE elect_net_on gauge\n"
            "elect_net_on 1\n");
}

TEST(SeriesWriter, RowsRenderOneFamilyPerFieldAndNestInJson) {
  const std::vector<std::uint64_t> hits = {5, 7};
  const auto declare = [&](obs::series_writer& w) {
    w.rows({.key = "per_reactor", .label = "reactor", .id_key = "index"},
           hits.size(), [](std::size_t i) { return std::to_string(i); },
           [&](std::size_t i) {
             w.counter("hits", "Hits.", hits[i]);
             w.gauge("open", "Open.", static_cast<double>(i));
           });
    w.rows({.key = "kinds", .label = "kind"}, 1,
           [](std::size_t) { return std::string("full"); },
           [&](std::size_t) { w.counter("wins", "Wins.", 1); });
  };
  obs::series_writer prom(obs::series_writer::format::prometheus);
  declare(prom);
  EXPECT_EQ(prom.take(),
            "# HELP elect_per_reactor_hits_total Hits.\n"
            "# TYPE elect_per_reactor_hits_total counter\n"
            "elect_per_reactor_hits_total{reactor=\"0\"} 5\n"
            "elect_per_reactor_hits_total{reactor=\"1\"} 7\n"
            "# HELP elect_per_reactor_open Open.\n"
            "# TYPE elect_per_reactor_open gauge\n"
            "elect_per_reactor_open{reactor=\"0\"} 0\n"
            "elect_per_reactor_open{reactor=\"1\"} 1\n"
            "# HELP elect_kinds_wins_total Wins.\n"
            "# TYPE elect_kinds_wins_total counter\n"
            "elect_kinds_wins_total{kind=\"full\"} 1\n");
  obs::series_writer json(obs::series_writer::format::json);
  declare(json);
  EXPECT_EQ(json.take(),
            "{\"per_reactor\":[{\"index\":0,\"hits\":5,\"open\":0},"
            "{\"index\":1,\"hits\":7,\"open\":1}],"
            "\"kinds\":{\"full\":{\"wins\":1}}}");
}

TEST(SeriesWriter, HistogramRendersBucketsAndASummaryObject) {
  const std::vector<std::uint64_t> buckets = {1, 0, 2};
  const obs::histogram_view h{.count = 3,
                              .sum_us = 0.01,
                              .buckets = buckets,
                              .p50_ms = 0.000006,
                              .p99_ms = 0.000006};
  obs::series_writer prom(obs::series_writer::format::prometheus);
  prom.histogram("wait", "Wait.", h);
  EXPECT_EQ(prom.take(),
            "# HELP elect_wait_seconds Wait.\n"
            "# TYPE elect_wait_seconds histogram\n"
            "elect_wait_seconds_bucket{le=\"2e-09\"} 1\n"
            "elect_wait_seconds_bucket{le=\"4e-09\"} 1\n"
            "elect_wait_seconds_bucket{le=\"8e-09\"} 3\n"
            "elect_wait_seconds_bucket{le=\"+Inf\"} 3\n"
            "elect_wait_seconds_sum 1e-08\n"
            "elect_wait_seconds_count 3\n");
  obs::series_writer json(obs::series_writer::format::json);
  json.histogram("wait", "Wait.", h);
  json.text("who", "a\"b");
  json.splice("raw", "");
  EXPECT_EQ(json.take(),
            "{\"wait\":{\"count\":3,\"sum_us\":0.01,\"p50_ms\":6e-06,"
            "\"p99_ms\":6e-06},\"who\":\"a\\\"b\"}");
}

// ---------------------------------------------------------------------
// A live server: svc + net + a quorum-1 repl cluster, HTTP side-channel on.

std::uint16_t reserve_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  EXPECT_EQ(::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr), 0);
  socklen_t len = sizeof addr;
  EXPECT_EQ(::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  ::close(fd);
  return ntohs(addr.sin_port);
}

/// GET `path` over HTTP/1.0; the response body, empty on any failure.
std::string http_get(std::uint16_t port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  std::string response;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) == 0) {
    const std::string request = "GET " + path + " HTTP/1.0\r\n\r\n";
    if (::send(fd, request.data(), request.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(request.size())) {
      char buf[4096];
      for (ssize_t got; (got = ::recv(fd, buf, sizeof buf, 0)) > 0;) {
        response.append(buf, static_cast<std::size_t>(got));
      }
    }
  }
  ::close(fd);
  const std::size_t body = response.find("\r\n\r\n");
  return body == std::string::npos ? std::string() : response.substr(body + 4);
}

struct live_server {
  live_server() {
    const std::uint16_t port = reserve_port();
    svc::service_config sc{.nodes = 2, .shards = 3};
    sc.record_commands = true;
    sc.default_strategy = election::strategy_kind::adaptive;
    service = std::make_unique<svc::service>(std::move(sc));
    repl::cluster_config cc;
    cc.members = {{"127.0.0.1", port}};
    cc.heartbeat_ms = 25;
    cc.election_timeout_min_ms = 100;
    cc.election_timeout_max_ms = 150;
    node = std::make_unique<repl::node>(cc, *service);
    node->start();
    net::server_config nc;
    nc.port = port;
    nc.reactors = 2;
    nc.reuseport = false;
    nc.http_enabled = true;
    repl::node* n = node.get();
    nc.cluster.is_primary = [n] { return n->is_primary(); };
    nc.cluster.primary_hint = [n] { return n->primary_endpoint(); };
    nc.cluster.peer = [n](const net::wire::request& r) {
      return n->handle_peer(r);
    };
    nc.cluster.status_json = [n] { return n->status_json(); };
    nc.cluster.prom_text = [n] { return n->prom_text(); };
    server = std::make_unique<net::server>(*service, nc);
    EXPECT_TRUE(server->listening());
    EXPECT_TRUE(server->http_listening());
    const auto deadline = std::chrono::steady_clock::now() + 10s;
    while (!node->is_primary() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(5ms);
    }
    EXPECT_TRUE(node->is_primary());
    // Some traffic, so the counters are not all zero.
    net::client client("127.0.0.1", port);
    EXPECT_TRUE(client.connected());
    for (int i = 0; i < 4; ++i) {
      const auto got = client.try_acquire("metrics/" + std::to_string(i));
      EXPECT_TRUE(got.won);
      (void)client.release("metrics/" + std::to_string(i), got.epoch);
    }
  }

  ~live_server() {
    server->stop();
    node->stop();
  }

  std::unique_ptr<svc::service> service;
  std::unique_ptr<repl::node> node;
  std::unique_ptr<net::server> server;
};

/// One family of a Prometheus exposition.
struct family {
  std::string type;
  std::string help;
  /// Label name of its samples ("" when unlabelled; a histogram's `le`
  /// does not count).
  std::string label;
};

struct exposition {
  std::map<std::string, family> families;
  /// Every sample as `name{label="value"}`, histograms as their family
  /// name.
  std::set<std::string> series;
};

exposition parse_exposition(const std::string& text) {
  exposition out;
  std::istringstream in(text);
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("# HELP ", 0) == 0) {
      const std::size_t space = line.find(' ', 7);
      out.families[line.substr(7, space - 7)].help = line.substr(space + 1);
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::size_t space = line.find(' ', 7);
      out.families[line.substr(7, space - 7)].type = line.substr(space + 1);
      continue;
    }
    const std::string name = line.substr(0, line.find_first_of("{ "));
    std::string base = name;
    for (const std::string suffix : {"_bucket", "_sum", "_count"}) {
      const std::string stem = name.substr(
          0, name.size() >= suffix.size() ? name.size() - suffix.size() : 0);
      if (name.ends_with(suffix) && out.families.count(stem) != 0 &&
          out.families[stem].type == "histogram") {
        base = stem;
      }
    }
    EXPECT_EQ(out.families.count(base), 1u) << "sample without HELP/TYPE: "
                                            << line;
    if (base != name) {  // histogram sample
      out.series.insert(base);
      continue;
    }
    const std::size_t open = line.find('{');
    std::string key = name;
    if (open != std::string::npos) {
      const std::size_t close = line.find('}', open);
      key += line.substr(open, close - open + 1);
      out.families[name].label =
          line.substr(open + 1, line.find('=', open) - open - 1);
    }
    out.series.insert(key);
  }
  return out;
}

/// The rows a report declares: JSON key -> Prometheus label, and the
/// field that carries the label in numbered (array) rows.
struct row_rule {
  std::string label;
  std::string id_key;  // "" = JSON object keyed by the label value
};
const std::map<std::string, row_rule>& row_rules() {
  static const std::map<std::string, row_rule> rules = {
      {"strategies", {"strategy", ""}},
      {"shards", {"shard", "index"}},
      {"per_reactor", {"reactor", "index"}},
      {"peers", {"peer", "member"}}};
  return rules;
}

bool is_histogram(const json_object& o) {
  return o.size() == 4 && o.count("count") != 0 && o.count("sum_us") != 0 &&
         o.count("p50_ms") != 0 && o.count("p99_ms") != 0;
}

void object_series(const json_object& o, const std::string& name,
                   std::set<std::string>& out);

/// The series names the naming rule derives from a JSON value: every
/// numeric or boolean leaf, without the counter suffix (the JSON does
/// not know which leaves are counters), and a histogram object as one
/// series. Strings are JSON-only.
void value_series(const json_value& v, const std::string& name,
                  const std::string& label, std::set<std::string>& out) {
  if (std::holds_alternative<json_object>(v.v)) {
    if (is_histogram(v.object())) {
      out.insert(name + "_seconds" + label);
    } else {
      EXPECT_TRUE(label.empty()) << name << ": a section inside a row";
      object_series(v.object(), name, out);
    }
  } else if (v.is_number() || std::holds_alternative<bool>(v.v)) {
    out.insert(name + label);
  }
}

void object_series(const json_object& o, const std::string& name,
                   std::set<std::string>& out) {
  for (const auto& [key, child] : o) {
    const std::string child_name = name + "_" + key;
    const auto rule = row_rules().find(key);
    if (rule == row_rules().end()) {
      value_series(*child, child_name, "", out);
      continue;
    }
    const auto row = [&](const std::string& id, const json_object& fields) {
      const std::string label = "{" + rule->second.label + "=\"" + id + "\"}";
      for (const auto& [field, value] : fields) {
        if (field != rule->second.id_key) {
          value_series(*value, child_name + "_" + field, label, out);
        }
      }
    };
    if (rule->second.id_key.empty()) {
      for (const auto& [id, fields] : child->object()) row(id, fields->object());
    } else {
      for (const auto& element : child->array()) {
        const json_object& fields = element->object();
        const double id = fields.at(rule->second.id_key)->number();
        row(std::to_string(static_cast<long long>(id)), fields);
      }
    }
  }
}

/// Strip `_total` from counters so names compare with object_series.
std::set<std::string> base_series(const exposition& e) {
  std::set<std::string> out;
  for (const std::string& s : e.series) {
    const std::string name = s.substr(0, s.find('{'));
    const std::string labels = s.substr(name.size());
    const bool counter = e.families.at(name).type == "counter";
    EXPECT_TRUE(!counter || name.ends_with("_total")) << name;
    out.insert((counter ? name.substr(0, name.size() - 6) : name) + labels);
  }
  return out;
}

std::string diff(const std::set<std::string>& a,
                 const std::set<std::string>& b) {
  std::string out;
  for (const std::string& s : a) {
    if (b.count(s) == 0) out += "  " + s + "\n";
  }
  return out;
}

TEST(MetricsSchema, PrometheusSeriesAreTheReportLeavesUnderTheNamingRule) {
  live_server live;
  const std::uint16_t port = live.server->http_port();
  const std::string metrics = http_get(port, "/metrics");
  const std::string report = http_get(port, "/report");
  ASSERT_FALSE(metrics.empty());
  const auto document = json_parser(report).parse();
  ASSERT_NE(document, nullptr) << "report is not valid JSON:\n" << report;

  const exposition e = parse_exposition(metrics);
  for (const auto& [name, f] : e.families) {
    EXPECT_FALSE(f.help.empty()) << name << " has no HELP";
    EXPECT_FALSE(f.type.empty()) << name << " has no TYPE";
  }
  const std::set<std::string> from_metrics = base_series(e);
  std::set<std::string> from_report;
  object_series(document->object(), "elect", from_report);
  EXPECT_EQ(from_metrics, from_report)
      << "only in /metrics:\n" << diff(from_metrics, from_report)
      << "only in /report:\n" << diff(from_report, from_metrics);

  // All three layers and every row kind are present.
  for (const std::string s :
       {"elect_acquires", "elect_strategies_acquires{strategy=\"adaptive\"}",
        "elect_shards_keys{shard=\"2\"}", "elect_acquire_latency_seconds",
        "elect_net_requests", "elect_net_per_reactor_requests{reactor=\"1\"}",
        "elect_repl_term", "elect_repl_is_primary",
        "elect_repl_commit_latency_seconds",
        "elect_repl_counters_compactions"}) {
    EXPECT_EQ(from_metrics.count(s), 1u) << s;
  }
}

/// README "Metrics" table rows: `name{label}` | type | help.
std::map<std::string, family> readme_families() {
  std::ifstream in(std::string(ELECT_SOURCE_DIR) + "/README.md");
  EXPECT_TRUE(in.good()) << "README.md not found";
  std::map<std::string, family> out;
  for (std::string line; std::getline(in, line);) {
    if (line.rfind("| `elect_", 0) != 0) continue;
    const std::size_t tick = line.find('`', 3);
    std::string name = line.substr(3, tick - 3);
    family f;
    if (const std::size_t brace = name.find('{');
        brace != std::string::npos) {
      f.label = name.substr(brace + 1, name.size() - brace - 2);
      name.resize(brace);
    }
    const std::size_t type_start = line.find("| ", tick) + 2;
    const std::size_t type_end = line.find(" |", type_start);
    f.type = line.substr(type_start, type_end - type_start);
    const std::size_t help_end = line.rfind(" |");
    f.help = line.substr(type_end + 3, help_end - type_end - 3);
    EXPECT_EQ(out.count(name), 0u) << "README lists " << name << " twice";
    out[name] = f;
  }
  return out;
}

TEST(MetricsSchema, ReadmeTableListsExactlyTheEmittedFamilies) {
  live_server live;
  const std::string metrics = http_get(live.server->http_port(), "/metrics");
  ASSERT_FALSE(metrics.empty());
  // A quorum-1 member has no peers, so its per-peer families come from
  // a member of a two-member cluster whose peer never answers.
  svc::service_config sc{.nodes = 2, .shards = 1};
  sc.record_commands = true;
  svc::service lonely_service(std::move(sc));
  repl::cluster_config cc;
  cc.members = {{"127.0.0.1", reserve_port()}, {"127.0.0.1", reserve_port()}};
  cc.peer_io_timeout_ms = 50;
  repl::node lonely(cc, lonely_service);
  lonely.start();
  const std::string peer_families = lonely.prom_text();
  lonely.stop();

  std::map<std::string, family> emitted = parse_exposition(metrics).families;
  for (const auto& [name, f] : parse_exposition(peer_families).families) {
    if (name.rfind("elect_repl_peers_", 0) == 0) emitted[name] = f;
  }
  const std::map<std::string, family> documented = readme_families();
  std::set<std::string> emitted_names;
  std::set<std::string> documented_names;
  for (const auto& [name, f] : emitted) emitted_names.insert(name);
  for (const auto& [name, f] : documented) documented_names.insert(name);
  ASSERT_EQ(emitted_names, documented_names)
      << "emitted, not in README:\n" << diff(emitted_names, documented_names)
      << "in README, not emitted:\n" << diff(documented_names, emitted_names);
  for (const auto& [name, f] : emitted) {
    const family& doc = documented.at(name);
    EXPECT_EQ(doc.type, f.type) << name;
    EXPECT_EQ(doc.label, f.label) << name;
    EXPECT_EQ(doc.help, f.help) << name;
  }
}

}  // namespace
}  // namespace elect
