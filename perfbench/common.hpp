// Shared pieces of the repo benchmark: run options, the result a run
// prints, sample statistics, process resource readings, and the span
// arithmetic behind the traced run's layer budget.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: the end-to-end metrics; true: the per-layer metrics.
  bool trace = false;
};

/// What one run prints: the operation counts, the property-check
/// verdicts, the metrics in print order, and the human-readable table
/// the traced run shows above the JSON line.
struct result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::vector<std::pair<std::string, double>> metrics;
  std::vector<std::string> table;

  /// Record a metric; main.cpp's metric lists give its unit.
  void put(const std::string& name, double value);
  void violate(std::string what);
  void violate_all(const std::vector<std::string>& what);
  [[nodiscard]] bool correct() const { return violations.empty(); }
};

// ---------------------------------------------------------------------
// Statistics over the benchmark's own samples.

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 when empty.
/// Sorts `v` in place.
[[nodiscard]] double quantile(std::vector<double>& v, double q);
[[nodiscard]] double median(std::vector<double> v);

/// splitmix64 over (seed, a, b): derives independent, reproducible
/// sub-seeds for keys, services, clusters and trials from --seed.
[[nodiscard]] std::uint64_t mix(std::uint64_t seed, std::uint64_t a,
                                std::uint64_t b = 0);

/// Process CPU time (user + system, every thread) in seconds.
[[nodiscard]] double process_cpu_s();
/// Peak resident set of the process so far, in MB.
[[nodiscard]] double peak_rss_mb();
/// Monotonic nanoseconds on the clock the program's spans use.
[[nodiscard]] std::uint64_t now_ns();

// ---------------------------------------------------------------------
// Interval statistics. A measured phase is cut into fixed intervals;
// each keeps its op count and a uniform reservoir of at most
// `reservoir` samples per series, so the benchmark's own memory does not
// grow with throughput. Rates and medians are taken per interval and
// the median over the phase's full intervals is reported: CPU time
// the host withholds for a second or two moves a few intervals, not the
// figure. Intervals of several phases pool by concatenation.

inline constexpr double interval_s = 0.5;

class interval_stats {
 public:
  static constexpr int series_count = 2;
  static constexpr std::size_t reservoir = 1024;

  interval_stats(std::uint64_t start_ns, double seconds, std::uint64_t seed);

  /// Count one op completed at `at_ns`.
  void count(std::uint64_t at_ns);
  /// Add one sample of `series` observed at `at_ns`.
  void add(int series, std::uint64_t at_ns, double value);
  void merge(const interval_stats& other);

  /// Ops per second of each full interval (those that end before the
  /// phase deadline).
  [[nodiscard]] std::vector<double> rates() const;
  /// The median of `series` in each full interval that has a sample.
  [[nodiscard]] std::vector<double> medians(int series) const;
  /// Every kept sample of `series` (for tail percentiles).
  [[nodiscard]] std::vector<double> kept(int series) const;

 private:
  struct bin {
    std::uint64_t ops = 0;
    std::uint64_t seen[series_count] = {};
    std::vector<float> kept[series_count];
  };
  [[nodiscard]] std::size_t index(std::uint64_t at_ns) const;

  std::uint64_t start_ns_;
  std::size_t full_;
  std::uint64_t rng_;
  std::vector<bin> bins_;
};

// ---------------------------------------------------------------------
// Layer budget. A traced op is a set of spans: the benchmark's own
// around each public call it makes, plus the ones the program records
// (read back with obs::collect). Each span kind belongs to a layer and
// has a depth rank; a span's parent is the lowest-ranked-above span
// whose interval holds its start. A span's self time is its duration
// minus the part of it its children cover.

enum class span_kind : std::uint8_t {
  op,           ///< benchmark: one whole op (acquire submit -> release ack)
  api_call,     ///< benchmark: around one api::client call
  trial,        ///< benchmark: around one exp::run_trial call
  api_inner,    ///< program: obs::phase::api_call
  rtt,          ///< benchmark (raw submit->take) or program wire_rtt
  serve,        ///< program: server-side serving of one request
  fast_path,    ///< program: adaptive CAS fast path
  queue_wait,   ///< program: job queued for its pool node
  election,     ///< program: the distributed election
  epoch_wait,   ///< program: loser parked until the epoch moves
  lease_op,     ///< program: fenced release/renew in the registry
  lease_grant,  ///< program: claim arbiter granting the epoch
  commit_wait,  ///< benchmark: around repl::node::wait_committed
};

[[nodiscard]] const char* layer_of(span_kind k);

struct span {
  span_kind kind = span_kind::op;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

/// Accumulates traced ops and reports per-layer self-time medians, the
/// raw span medians the metric list names, and the residual.
class layer_budget {
 public:
  void add_op(std::vector<span> spans);

  /// Number of ops added.
  [[nodiscard]] std::size_t ops() const { return op_us_.size(); }
  /// Median whole-op time over the traced ops, in us.
  [[nodiscard]] double op_p50_us() const;
  /// Median of one span kind's durations (per span), in us; 0 if none.
  [[nodiscard]] double raw_p50_us(span_kind k) const;
  /// Median of one span kind's self times (per span), in us; 0 if none.
  [[nodiscard]] double self_p50_us(span_kind k) const;
  /// Per-op self time of each layer (summed over the op's spans of that
  /// layer; 0 for an op without one), median over ops, in us.
  [[nodiscard]] std::map<std::string, double> layer_self_p50_us() const;
  /// op_p50_us minus the sum of the layers' self-time medians.
  [[nodiscard]] double residual_p50_us() const;

 private:
  std::vector<double> op_us_;
  std::map<span_kind, std::vector<double>> raw_us_;
  std::map<span_kind, std::vector<double>> self_us_;
  /// layer -> per-op self time (one entry per op, zeros included).
  std::map<std::string, std::vector<double>> layer_op_us_;
};

/// The layers a budget row may name, in print order.
[[nodiscard]] const std::vector<std::string>& budget_layers();

}  // namespace perfbench
