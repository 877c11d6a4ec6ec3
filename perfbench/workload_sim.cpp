// sim_election: seeded exp::run_trial runs of Figure 6 leader_elect
// (k = n contenders) and Figure 3 renaming under the repo's adversaries,
// the strong adaptive flip-adaptive and crash injection included. One op
// is one trial; the work is single-threaded and all in election, engine
// and sim. Each round of trials runs in a forked child, which is how the
// round's peak resident set is read.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "checks.hpp"
#include "exp/harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using elect::exp::algo;

struct trial_kind {
  algo kind;
  int n;
  const char* adversary;
  int crashes;
};

/// One round: every run attempts whole rounds, in this order.
const std::vector<trial_kind>& round_kinds() {
  static const std::vector<trial_kind> kinds = {
      {algo::leader_elect, 64, "uniform", 0},
      {algo::leader_elect, 64, "round-robin", 0},
      {algo::leader_elect, 64, "sequential", 0},
      {algo::leader_elect, 64, "flip-adaptive", 0},
      {algo::leader_elect, 64, "contention-delayer", 0},
      {algo::leader_elect, 64, "flip-adaptive", 31},
      {algo::renaming, 16, "uniform", 0},
      {algo::renaming, 16, "flip-adaptive", 0},
      {algo::renaming, 16, "crash-uniform", 0},
  };
  return kinds;
}

elect::exp::trial_config config_for(const trial_kind& k, std::uint64_t seed) {
  elect::exp::trial_config c;
  c.kind = k.kind;
  c.n = k.n;
  c.participants = k.n;
  c.seed = seed;
  c.adversary = k.adversary;
  c.crashes = k.crashes;
  return c;
}

struct trial_out {
  elect::exp::trial_result r;
  double wall_us = 0;
};

trial_out run_one(const trial_kind& k, std::uint64_t seed, result& out) {
  trial_out t;
  const std::uint64_t t0 = now_ns();
  t.r = elect::exp::run_trial(config_for(k, seed));
  t.wall_us = static_cast<double>(now_ns() - t0) / 1000.0;
  const std::string what = std::string(elect::exp::to_string(k.kind)) + "/" +
                           k.adversary + " seed " + std::to_string(seed) +
                           ": ";
  if (!t.r.completed) {
    out.violate(what + "did not complete");
    return t;
  }
  const auto v =
      k.kind == algo::leader_elect
          ? checks::leader_elect_trial(t.r.outcomes, t.r.crashed_participants)
          : checks::renaming_trial(t.r.outcomes, k.n,
                                   t.r.crashed_participants);
  for (const auto& s : v) out.violate(what + s);
  return t;
}

/// One trial as a round's child process reports it.
struct trial_line {
  std::size_t slot = 0;
  double wall_us = 0;
  double events = 0, messages = 0, calls = 0, bytes = 0;
};

/// One round, run in a forked child so that the round's peak resident
/// set can be read on its own (a heavy trial's peak would otherwise
/// stand for the whole run). The child writes one line per trial and
/// one per violation to a pipe; the parent parses them and reaps the
/// child with wait4. Returns the child's peak RSS in MB.
double run_round(std::uint64_t seed, std::uint64_t round,
                 std::vector<trial_line>& lines, result& out) {
  int fds[2];
  if (::pipe(fds) != 0) {
    out.violate("pipe failed");
    return 0;
  }
  const pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    out.violate("fork failed");
    return 0;
  }
  const auto& kinds = round_kinds();
  if (pid == 0) {
    ::close(fds[0]);
    std::string text;
    result child;
    for (std::size_t slot = 0; slot < kinds.size(); ++slot) {
      const trial_out t = run_one(kinds[slot], mix(seed, round, slot), child);
      char buf[192];
      std::snprintf(buf, sizeof buf, "T %zu %.3f %llu %llu %llu %llu\n", slot,
                    t.wall_us, static_cast<unsigned long long>(t.r.events),
                    static_cast<unsigned long long>(t.r.total_messages),
                    static_cast<unsigned long long>(t.r.max_communicate_calls),
                    static_cast<unsigned long long>(t.r.wire_bytes));
      text += buf;
    }
    for (const auto& v : child.violations) text += "V " + v + "\n";
    std::size_t sent = 0;
    while (sent < text.size()) {
      const ssize_t n = ::write(fds[1], text.data() + sent, text.size() - sent);
      if (n <= 0) ::_exit(1);
      sent += static_cast<std::size_t>(n);
    }
    ::_exit(0);
  }
  ::close(fds[1]);
  std::string text;
  char buf[4096];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fds[0]);
  int status = 0;
  rusage usage{};
  while (::wait4(pid, &status, 0, &usage) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    out.violate("round " + std::to_string(round) + " child failed");
  }
  std::size_t trials = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t eol = text.find('\n', pos);
    const std::string line = text.substr(pos, eol - pos);
    pos = eol == std::string::npos ? text.size() : eol + 1;
    if (line.rfind("V ", 0) == 0) {
      out.violate(line.substr(2));
      continue;
    }
    trial_line t;
    unsigned long long ev = 0, msg = 0, calls = 0, bytes = 0;
    if (std::sscanf(line.c_str(), "T %zu %lf %llu %llu %llu %llu", &t.slot,
                    &t.wall_us, &ev, &msg, &calls, &bytes) != 6 ||
        t.slot >= kinds.size()) {
      out.violate("round " + std::to_string(round) + ": bad line " + line);
      continue;
    }
    t.events = static_cast<double>(ev);
    t.messages = static_cast<double>(msg);
    t.calls = static_cast<double>(calls);
    t.bytes = static_cast<double>(bytes);
    lines.push_back(t);
    ++trials;
  }
  if (trials != kinds.size()) {
    out.violate("round " + std::to_string(round) + " reported " +
                std::to_string(trials) + " trials");
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MB
}

double children_cpu_s() {
  rusage u{};
  ::getrusage(RUSAGE_CHILDREN, &u);
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

/// Everything one phase measured.
struct sim_phase {
  std::uint64_t trials = 0;
  double seconds = 0;
  double cpu_s = 0;
  std::vector<double> trial_us;
  std::vector<double> election_us;
  std::vector<double> renaming_us;
  std::vector<double> round_rss_mb;
  /// Wall times per round slot (trial kind).
  std::vector<std::vector<double>> slot_us;
  double events = 0;
  double election_trials = 0, election_messages = 0, election_calls = 0,
         election_bytes = 0;
  double renaming_trials = 0, renaming_messages = 0, renaming_calls = 0;
  std::vector<std::vector<span>> traced;
};

/// Whole rounds until `seconds` have passed; trial seeds come from
/// (seed, round, slot), so the same --seed gives the same trials.
sim_phase run_phase(std::uint64_t seed, std::uint64_t first_round,
                    double seconds, bool traced, result& out) {
  sim_phase p;
  const double cpu0 = process_cpu_s() + children_cpu_s();
  const std::uint64_t start = now_ns();
  const std::uint64_t deadline =
      start + static_cast<std::uint64_t>(seconds * 1e9);
  const auto& kinds = round_kinds();
  std::vector<trial_line> lines;
  p.slot_us.resize(kinds.size());
  for (std::uint64_t round = first_round; now_ns() < deadline; ++round) {
    lines.clear();
    p.round_rss_mb.push_back(run_round(seed, round, lines, out));
    for (const trial_line& t : lines) {
      ++p.trials;
      p.trial_us.push_back(t.wall_us);
      p.slot_us[t.slot].push_back(t.wall_us);
      p.events += t.events;
      if (kinds[t.slot].kind == algo::leader_elect) {
        p.election_us.push_back(t.wall_us);
        p.election_trials += 1;
        p.election_messages += t.messages;
        p.election_calls += t.calls;
        p.election_bytes += t.bytes;
      } else {
        p.renaming_us.push_back(t.wall_us);
        p.renaming_trials += 1;
        p.renaming_messages += t.messages;
        p.renaming_calls += t.calls;
      }
      if (traced) {
        const auto wall = static_cast<std::uint64_t>(t.wall_us * 1000.0);
        p.traced.push_back({{span_kind::op, 0, wall},
                            {span_kind::trial, 0, wall}});
      }
    }
  }
  p.seconds = static_cast<double>(now_ns() - start) / 1e9;
  p.cpu_s = process_cpu_s() + children_cpu_s() - cpu0;
  return p;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Time to elect a leader from none: the geometric mean over the
/// leader_elect kinds of each kind's median trial time. (The median of
/// all leader_elect trials would fall in the gap between the fast and
/// the slow adversaries and jump between them from run to run.)
double election_time_us(const sim_phase& p) {
  const auto& kinds = round_kinds();
  double log_sum = 0;
  int n = 0;
  for (std::size_t slot = 0; slot < kinds.size(); ++slot) {
    if (kinds[slot].kind != algo::leader_elect || p.slot_us[slot].empty()) {
      continue;
    }
    log_sum += std::log(median(p.slot_us[slot]));
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / n);
}

/// Set-up: a warm-up round (one trial of every kind, from a seed stream
/// the measured rounds never use), forked like every measured round.
double timed_setup(std::uint64_t seed, result& out) {
  std::vector<double> times;
  std::vector<trial_line> lines;
  for (int i = 0; i < setups_per_run; ++i) {
    const std::uint64_t t0 = now_ns();
    (void)run_round(seed, ~0ull - static_cast<unsigned>(i), lines, out);
    times.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  return median(times);
}

}  // namespace

void run_sim_election(const options& opts, result& out) {
  const double setup_s = timed_setup(opts.seed, out);
  const auto account = [&](const sim_phase& p) {
    out.attempted += p.trials;
  };
  // Rerunning one trial seed reproduces its trace hash.
  const auto replay = [&] {
    const trial_kind& k = round_kinds()[3];  // leader_elect, flip-adaptive
    const std::uint64_t s = mix(opts.seed, 0, 3);
    const auto a = elect::exp::run_trial(config_for(k, s));
    const auto b = elect::exp::run_trial(config_for(k, s));
    out.violate_all(checks::replay(s, a.trace_hash, b.trace_hash));
  };
  if (!opts.trace) {
    const sim_phase p = run_phase(opts.seed, 0, opts.seconds, false, out);
    account(p);
    replay();
    out.put("setup_s", setup_s);
    out.put("ops_per_s", ratio(static_cast<double>(p.trials), p.seconds));
    out.put("op_p50_us", median(p.trial_us));
    out.put("cpu_us_per_op",
            ratio(p.cpu_s * 1e6, static_cast<double>(p.trials)));
    out.put("rss_mb", median(p.round_rss_mb));
    out.put("handoff_p50_us", election_time_us(p));
    return;
  }
  const sim_phase plain = run_phase(opts.seed, 0, opts.seconds / 2, false, out);
  const sim_phase traced =
      run_phase(opts.seed, 1u << 20, opts.seconds / 2, true, out);
  account(plain);
  account(traced);
  replay();

  layer_budget budget;
  for (auto spans : traced.traced) budget.add_op(std::move(spans));
  const double plain_rate = ratio(static_cast<double>(plain.trials),
                                  plain.seconds);
  const double traced_rate = ratio(static_cast<double>(traced.trials),
                                   traced.seconds);
  std::vector<double> trial_us = plain.trial_us;
  std::vector<double> election_us = plain.election_us;
  out.put("op_p99_us", quantile(trial_us, 0.99));
  out.put("handoff_p99_us", quantile(election_us, 0.99));
  out.put("obs.traced_op_p50_us", budget.op_p50_us());
  out.put("obs.trace_overhead_pct",
          plain_rate > 0 ? 100.0 * (plain_rate - traced_rate) / plain_rate
                         : 0.0);
  out.put("layer_residual_p50_us", budget.residual_p50_us());
  const auto selfs = budget.layer_self_p50_us();
  for (const auto& layer : budget_layers()) {
    const auto it = selfs.find(layer);
    out.put("self." + layer + "_p50_us", it == selfs.end() ? 0.0 : it->second);
  }

  // Per-layer counts over both halves: the trials are the same kinds.
  const auto sum = [&](double sim_phase::*field) {
    return plain.*field + traced.*field;
  };
  const double trials = static_cast<double>(plain.trials + traced.trials);
  const double seconds = plain.seconds + traced.seconds;
  const double e_trials = sum(&sim_phase::election_trials);
  const double r_trials = sum(&sim_phase::renaming_trials);
  out.put("election.messages_per_trial",
          ratio(sum(&sim_phase::election_messages), e_trials));
  out.put("election.max_comm_calls_per_trial",
          ratio(sum(&sim_phase::election_calls), e_trials));
  out.put("election.wire_bytes_per_trial",
          ratio(sum(&sim_phase::election_bytes), e_trials));
  std::vector<double> e_us = plain.election_us;
  e_us.insert(e_us.end(), traced.election_us.begin(), traced.election_us.end());
  out.put("election.trial_p50_ms", median(e_us) / 1000.0);
  out.put("renaming.messages_per_trial",
          ratio(sum(&sim_phase::renaming_messages), r_trials));
  out.put("renaming.max_comm_calls_per_trial",
          ratio(sum(&sim_phase::renaming_calls), r_trials));
  std::vector<double> r_us = plain.renaming_us;
  r_us.insert(r_us.end(), traced.renaming_us.begin(), traced.renaming_us.end());
  out.put("renaming.trial_p50_ms", median(r_us) / 1000.0);
  out.put("sim.events_per_trial", ratio(sum(&sim_phase::events), trials));
  out.put("sim.events_per_s", ratio(sum(&sim_phase::events), seconds));

  char line[160];
  std::snprintf(line, sizeof line,
                "untraced: %llu trials in %.2fs (%.1f/s); traced: %llu in "
                "%.2fs (%.1f/s)",
                static_cast<unsigned long long>(plain.trials), plain.seconds,
                plain_rate, static_cast<unsigned long long>(traced.trials),
                traced.seconds, traced_rate);
  out.table.emplace_back(line);
  std::snprintf(line, sizeof line,
                "leader_elect trial p50 %.2fms over %.0f trials; renaming "
                "trial p50 %.2fms over %.0f trials",
                median(e_us) / 1000.0, e_trials, median(r_us) / 1000.0,
                r_trials);
  out.table.emplace_back(line);
  std::snprintf(line, sizeof line,
                "layer self-time medians per trial (us): sim %.2f, bench "
                "%.2f, residual %.2f",
                selfs.count("sim") ? selfs.at("sim") : 0.0,
                selfs.count("bench") ? selfs.at("bench") : 0.0,
                budget.residual_p50_us());
  out.table.emplace_back(line);
}

}  // namespace perfbench
