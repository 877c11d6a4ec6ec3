#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common.hpp"
#include "obs/trace.hpp"

namespace perfbench {

void result::put(const std::string& name, double value) {
  metrics.emplace_back(name, value);
}

void result::violate(std::string what) {
  // Keep the report bounded: one broken invariant usually repeats on
  // every op, and the first few occurrences say everything.
  if (violations.size() < 64) violations.push_back(std::move(what));
}

void result::violate_all(const std::vector<std::string>& what) {
  for (const auto& w : what) violate(w);
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(v, 0.5); }

std::uint64_t mix(std::uint64_t seed, std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = seed ^ (a * 0x9E3779B97F4A7C15ull) ^
                    (b * 0xC2B2AE3D27D4EB4Full);
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double process_cpu_s() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

double peak_rss_mb() {
  rusage u{};
  ::getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t now_ns() { return elect::obs::now_ns(); }

// ---------------------------------------------------------------------
// Interval statistics.

interval_stats::interval_stats(std::uint64_t start_ns, double seconds,
                               std::uint64_t seed)
    : start_ns_(start_ns),
      full_(static_cast<std::size_t>(std::floor(seconds / interval_s))),
      rng_(seed | 1),
      bins_(full_ + 1) {
  // Reserve and touch every reservoir now: the phase then allocates
  // nothing, and its memory is the same at any throughput.
  for (bin& b : bins_) {
    for (auto& k : b.kept) k.assign(reservoir, 0.0f);
  }
}

std::size_t interval_stats::index(std::uint64_t at_ns) const {
  const double t = static_cast<double>(at_ns - std::min(at_ns, start_ns_)) /
                   1e9 / interval_s;
  return std::min(static_cast<std::size_t>(t), bins_.size() - 1);
}

void interval_stats::count(std::uint64_t at_ns) { ++bins_[index(at_ns)].ops; }

void interval_stats::add(int series, std::uint64_t at_ns, double value) {
  bin& b = bins_[index(at_ns)];
  const auto s = static_cast<std::size_t>(series);
  std::vector<float>& kept = b.kept[s];
  const std::uint64_t n = b.seen[s]++;
  if (n < kept.size()) {
    kept[n] = static_cast<float>(value);
  } else if (n < reservoir) {
    kept.push_back(static_cast<float>(value));
  } else {
    rng_ = mix(rng_, n);
    const std::uint64_t j = rng_ % (n + 1);
    if (j < kept.size()) kept[j] = static_cast<float>(value);
  }
}

void interval_stats::merge(const interval_stats& other) {
  for (std::size_t i = 0; i < bins_.size() && i < other.bins_.size(); ++i) {
    bin& b = bins_[i];
    const bin& o = other.bins_[i];
    b.ops += o.ops;
    for (int s = 0; s < series_count; ++s) {
      const auto si = static_cast<std::size_t>(s);
      const std::size_t mine =
          std::min<std::uint64_t>(b.seen[si], b.kept[si].size());
      const std::size_t theirs =
          std::min<std::uint64_t>(o.seen[si], o.kept[si].size());
      b.kept[si].resize(mine);
      b.kept[si].insert(b.kept[si].end(), o.kept[si].begin(),
                        o.kept[si].begin() + static_cast<long>(theirs));
      b.seen[si] = b.kept[si].size();
    }
  }
}

std::vector<double> interval_stats::rates() const {
  std::vector<double> out;
  for (std::size_t i = 0; i < full_; ++i) {
    out.push_back(static_cast<double>(bins_[i].ops) / interval_s);
  }
  return out;
}

std::vector<double> interval_stats::medians(int series) const {
  const auto s = static_cast<std::size_t>(series);
  std::vector<double> out;
  for (std::size_t i = 0; i < full_; ++i) {
    const bin& b = bins_[i];
    const std::size_t n = std::min<std::uint64_t>(b.seen[s], b.kept[s].size());
    if (n == 0) continue;
    out.push_back(median(std::vector<double>(
        b.kept[s].begin(), b.kept[s].begin() + static_cast<long>(n))));
  }
  return out;
}

std::vector<double> interval_stats::kept(int series) const {
  const auto s = static_cast<std::size_t>(series);
  std::vector<double> out;
  for (const bin& b : bins_) {
    const std::size_t n = std::min<std::uint64_t>(b.seen[s], b.kept[s].size());
    out.insert(out.end(), b.kept[s].begin(),
               b.kept[s].begin() + static_cast<long>(n));
  }
  return out;
}

// ---------------------------------------------------------------------
// Layer budget.

namespace {

int rank_of(span_kind k) {
  switch (k) {
    case span_kind::op:
      return 0;
    case span_kind::api_call:
    case span_kind::trial:
      return 1;
    case span_kind::api_inner:
      return 2;
    case span_kind::rtt:
      return 3;
    case span_kind::serve:
      return 4;
    case span_kind::fast_path:
    case span_kind::queue_wait:
    case span_kind::election:
    case span_kind::epoch_wait:
    case span_kind::lease_op:
      return 5;
    case span_kind::lease_grant:
    case span_kind::commit_wait:
      return 6;
  }
  return 7;
}

double us(std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

/// Length of the union of [a, b) intervals.
std::uint64_t union_length(std::vector<std::pair<std::uint64_t,
                                                std::uint64_t>> v) {
  std::sort(v.begin(), v.end());
  std::uint64_t total = 0;
  std::uint64_t cur_a = 0;
  std::uint64_t cur_b = 0;
  bool open = false;
  for (const auto& [a, b] : v) {
    if (b <= a) continue;
    if (!open || a > cur_b) {
      if (open) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (open) total += cur_b - cur_a;
  return total;
}

}  // namespace

const char* layer_of(span_kind k) {
  switch (k) {
    case span_kind::op:
      return "bench";
    case span_kind::trial:
      return "sim";
    case span_kind::api_call:
    case span_kind::api_inner:
      return "api";
    case span_kind::rtt:
      return "net.edge";
    case span_kind::serve:
      return "net.serve";
    case span_kind::fast_path:
      return "svc.fast_path";
    case span_kind::queue_wait:
      return "svc.queue_wait";
    case span_kind::election:
      return "election";
    case span_kind::epoch_wait:
      return "svc.epoch_wait";
    case span_kind::lease_op:
      return "svc.lease_op";
    case span_kind::lease_grant:
      return "election.lease_grant";
    case span_kind::commit_wait:
      return "repl.commit_wait";
  }
  return "?";
}

const std::vector<std::string>& budget_layers() {
  static const std::vector<std::string> layers = {
      "bench",          "api",           "net.edge",
      "net.serve",      "svc.fast_path", "svc.queue_wait",
      "svc.epoch_wait", "svc.lease_op",  "election",
      "election.lease_grant", "repl.commit_wait", "sim"};
  return layers;
}

void layer_budget::add_op(std::vector<span> spans) {
  std::uint64_t op_ns = 0;
  bool have_op = false;
  for (const auto& s : spans) {
    if (s.kind == span_kind::op) {
      op_ns = s.end_ns - s.start_ns;
      have_op = true;
    }
  }
  if (!have_op) return;
  op_us_.push_back(us(op_ns));

  // Parent of each span: among spans of lower rank whose interval holds
  // its start, the highest-ranked one (latest start breaks ties).
  const std::size_t n = spans.size();
  std::vector<int> parent(n, -1);
  for (std::size_t c = 0; c < n; ++c) {
    const int rc = rank_of(spans[c].kind);
    int best = -1;
    for (std::size_t p = 0; p < n; ++p) {
      if (p == c) continue;
      const int rp = rank_of(spans[p].kind);
      if (rp >= rc) continue;
      if (spans[c].start_ns < spans[p].start_ns ||
          spans[c].start_ns > spans[p].end_ns) {
        continue;
      }
      if (best < 0) {
        best = static_cast<int>(p);
        continue;
      }
      const auto& b = spans[static_cast<std::size_t>(best)];
      const int rb = rank_of(b.kind);
      if (rp > rb || (rp == rb && spans[p].start_ns > b.start_ns)) {
        best = static_cast<int>(p);
      }
    }
    parent[c] = best;
  }

  std::map<std::string, double> per_layer;
  for (std::size_t s = 0; s < n; ++s) {
    const span& sp = spans[s];
    // Spans that hang off no benchmark span belong to no op.
    if (sp.kind != span_kind::op && parent[s] < 0) continue;
    std::vector<std::pair<std::uint64_t, std::uint64_t>> covered;
    for (std::size_t c = 0; c < n; ++c) {
      if (parent[c] != static_cast<int>(s)) continue;
      covered.emplace_back(std::max(spans[c].start_ns, sp.start_ns),
                           std::min(spans[c].end_ns, sp.end_ns));
    }
    const std::uint64_t dur = sp.end_ns - sp.start_ns;
    const std::uint64_t self = dur - std::min(dur, union_length(covered));
    raw_us_[sp.kind].push_back(us(dur));
    self_us_[sp.kind].push_back(us(self));
    per_layer[layer_of(sp.kind)] += us(self);
  }
  for (const auto& layer : budget_layers()) {
    const auto it = per_layer.find(layer);
    layer_op_us_[layer].push_back(it == per_layer.end() ? 0.0 : it->second);
  }
}

double layer_budget::op_p50_us() const { return median(op_us_); }

double layer_budget::raw_p50_us(span_kind k) const {
  const auto it = raw_us_.find(k);
  return it == raw_us_.end() ? 0.0 : median(it->second);
}

double layer_budget::self_p50_us(span_kind k) const {
  const auto it = self_us_.find(k);
  return it == self_us_.end() ? 0.0 : median(it->second);
}

std::map<std::string, double> layer_budget::layer_self_p50_us() const {
  std::map<std::string, double> out;
  for (const auto& [layer, v] : layer_op_us_) out[layer] = median(v);
  return out;
}

double layer_budget::residual_p50_us() const {
  double sum = 0.0;
  for (const auto& [layer, p50] : layer_self_p50_us()) {
    // The benchmark's own client loop is not a layer of the program.
    if (layer != "bench") sum += p50;
  }
  return op_p50_us() - sum;
}

}  // namespace perfbench
