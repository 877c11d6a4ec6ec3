// perfbench — the repo benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --self-test
//
// Runs one workload in this process, checks the program's outputs, and
// prints one JSON object as the last line of stdout:
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set; with --trace 1 the
// per-layer set, and a table of layer self-time medians is printed
// above the JSON line. Every run also runs the output checks' self-test
// (planted faults must be convicted); a failing self-test makes the run
// incorrect. See README.md for the workloads and the metric map.
#include <sched.h>

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct metric_def {
  const char* name;
  const char* unit;
};

const std::vector<metric_def> end_to_end = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"}, {"op_p50_us", "us"},
    {"cpu_us_per_op", "us"},   {"rss_mb", "MB"},     {"handoff_p50_us", "us"},
};

std::vector<metric_def> per_layer() {
  std::vector<metric_def> m = {
      {"net.client.rtt_p50_us", "us"},
      {"net.server.serve_p50_us", "us"},
      {"net.edge_p50_us", "us"},
      {"net.wire.encode_ns", "ns"},
      {"net.wire.decode_ns", "ns"},
      {"net.frames_per_writev", "1/call"},
      {"net.requests_per_drain", "1/drain"},
      {"net.wakeups_per_op", "1/op"},
      {"net.bytes_per_op", "B/op"},
      {"net.busy_rejections_per_op", "1/op"},
      {"api.acquire_p50_us", "us"},
      {"api.release_p50_us", "us"},
      {"svc.fast_path.hit_ratio", "ratio"},
      {"svc.fast_path_p50_us", "us"},
      {"svc.lease_op_p50_us", "us"},
      {"svc.queue_wait_p50_us", "us"},
      {"svc.epoch_wait_p50_us", "us"},
      {"svc.attempts_per_op", "1/op"},
      {"svc.short_circuit_per_op", "1/op"},
      {"election.p50_us", "us"},
      {"election.lease_grant_p50_us", "us"},
      {"election.messages_per_acquire", "msg"},
      {"election.messages_per_trial", "msg"},
      {"election.max_comm_calls_per_trial", "calls"},
      {"election.wire_bytes_per_trial", "B"},
      {"election.trial_p50_ms", "ms"},
      {"renaming.messages_per_trial", "msg"},
      {"renaming.max_comm_calls_per_trial", "calls"},
      {"renaming.trial_p50_ms", "ms"},
      {"sim.events_per_trial", "events"},
      {"sim.events_per_s", "1/s"},
      {"mt.messages_per_push", "msg"},
      {"repl.commit_wait_p50_us", "us"},
      {"repl.appends_per_op", "1/op"},
      {"repl.entries_per_append", "1/append"},
      {"repl.commit_timeouts", "count"},
      {"cmd.commands_per_op", "1/op"},
      {"cmd.retained_commands", "count"},
      {"obs.trace_overhead_pct", "%"},
      {"obs.spans_per_op", "1/op"},
      {"obs.traced_op_p50_us", "us"},
      {"layer_residual_p50_us", "us"},
      {"op_p99_us", "us"},
      {"handoff_p99_us", "us"},
  };
  static std::vector<std::string> self_names;
  if (self_names.empty()) {
    for (const auto& layer : budget_layers()) {
      self_names.push_back("self." + layer + "_p50_us");
    }
  }
  for (const auto& n : self_names) m.push_back({n.c_str(), "us"});
  return m;
}

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

/// Restrict the process (and every thread it starts later) to the first
/// CPU it may run on.
bool pin_to_one_cpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return false;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return ::sched_setaffinity(0, sizeof one, &one) == 0;
  }
  return false;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload "
               "tcp_fastpath|tcp_handoff|cluster3_commit|sim_election "
               "--seed N --seconds S --trace 0|1\n"
               "       perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") {
      std::vector<std::string> log;
      const auto failures = checks::self_test(&log);
      for (const auto& l : log) std::printf("%s\n", l.c_str());
      for (const auto& f : failures) std::printf("FAIL %s\n", f.c_str());
      std::printf("self-test: %zu cases, %zu failures\n", log.size(),
                  failures.size());
      return failures.empty() ? 0 : 1;
    }
    if (i + 1 >= argc) return usage();
    const std::string val = argv[++i];
    if (arg == "--workload") {
      opts.workload = val;
      have_workload = true;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(val.c_str(), nullptr);
    } else if (arg == "--trace") {
      opts.trace = val == "1";
    } else {
      return usage();
    }
  }
  if (!have_workload || opts.seconds <= 0) return usage();

  // Run every thread of the benchmark on one CPU. The program's threads
  // hand each request across reactors, executors, pool nodes and
  // replication workers; spread over several virtual CPUs, each handoff
  // waits on whichever CPU the hypervisor happens to be running, and
  // the same code measured 0.5x-2x apart from run to run. On one CPU
  // the figures follow the program's own work.
  if (!pin_to_one_cpu()) {
    std::fprintf(stderr, "perfbench: could not pin to one CPU\n");
    return 1;
  }

  result res;
  res.violate_all(checks::self_test());
  if (opts.workload == "tcp_fastpath") {
    run_tcp_fastpath(opts, res);
  } else if (opts.workload == "tcp_handoff") {
    run_tcp_handoff(opts, res);
  } else if (opts.workload == "cluster3_commit") {
    run_cluster3_commit(opts, res);
  } else if (opts.workload == "sim_election") {
    run_sim_election(opts, res);
  } else {
    return usage();
  }

  const std::vector<metric_def> defs = opts.trace ? per_layer() : end_to_end;
  std::map<std::string, double> values;
  for (const auto& [name, value] : res.metrics) {
    bool known = false;
    for (const auto& d : defs) known = known || name == d.name;
    if (!known) res.violate("workload reported unlisted metric " + name);
    values[name] = value;
  }
  if (res.attempted == 0) res.violate("no operation was attempted");

  for (const auto& line : res.table) std::printf("%s\n", line.c_str());
  for (const auto& v : res.violations) {
    std::fprintf(stderr, "VIOLATION: %s\n", v.c_str());
  }
  std::string json = "{\"correct\": ";
  json += res.correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(res.attempted);
  json += ", \"failed\": " + std::to_string(res.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& d : defs) {
    if (!first) json += ", ";
    first = false;
    const auto it = values.find(d.name);
    json += quoted(d.name) + ": {\"value\": " +
            number(it == values.end() ? 0.0 : it->second) +
            ", \"unit\": " + quoted(d.unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
