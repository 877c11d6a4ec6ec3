// Shared helpers for the experiment binaries: headers, fit-ranking
// printouts, and a tiny stopwatch. Each bench regenerates one experiment
// from DESIGN.md §3 and prints markdown tables that EXPERIMENTS.md embeds.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/fit.hpp"
#include "exp/table.hpp"

namespace elect::bench {

/// Parse `--seed N` from the bench's argv, falling back to the bench's
/// historical default when absent — so unseeded runs reproduce the
/// numbers every earlier PR published. Benches derive all their PRNG
/// streams (service seed, per-row offsets) from this one value and
/// stamp it into BENCH_*.json as meta.seed, which is what lets a
/// perf-trajectory diff say "same workload, different code" — or lets
/// the chaos harness replay a bench row that behaved strangely.
inline std::uint64_t parse_seed(int argc, char** argv,
                                std::uint64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return fallback;
}

inline std::string exp_fmt(double v) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.3f", v);
  return buffer;
}

inline void print_header(const std::string& id, const std::string& title,
                         const std::string& paper_claim) {
  std::cout << "\n## " << id << " — " << title << "\n\n";
  std::cout << "Paper claim: " << paper_claim << "\n\n";
}

/// Print the top growth-law fits for a measured series.
inline void print_fit(const std::string& series_name,
                      const std::vector<double>& xs,
                      const std::vector<double>& ys, int top = 3) {
  const auto ranked = rank_growth_laws(xs, ys);
  std::cout << "Shape fit for `" << series_name << "` (best R² first): ";
  for (int i = 0; i < top && i < static_cast<int>(ranked.size()); ++i) {
    if (i > 0) std::cout << ", ";
    std::cout << ranked[i].law << " (R²=" << exp_fmt(ranked[i].r_squared)
              << ")";
  }
  std::cout << "\n";
}

/// Machine-readable results sidecar: accumulates scalar fields and table
/// rows, then writes `BENCH_<name>.json` next to the bench's stdout
/// markdown. Every bench emits one so the perf trajectory across PRs can
/// be diffed without re-parsing tables.
///
/// Every file is stamped with a `meta` object — build type, git sha,
/// compiler — injected at build time (see the bench loop in
/// CMakeLists.txt), so two BENCH_*.json artifacts are only ever compared
/// knowing which commit and optimization level produced them. Benches
/// add run-shape metadata (smoke mode, sweep config) via meta_field().
class json_emitter {
 public:
  explicit json_emitter(std::string bench_name)
      : name_(std::move(bench_name)) {
    meta_field("git_sha",
#ifdef ELECT_GIT_SHA
               ELECT_GIT_SHA
#else
               "unknown"
#endif
    );
    meta_field("build_type",
#ifdef ELECT_BUILD_TYPE
               ELECT_BUILD_TYPE
#else
               "unknown"
#endif
    );
#ifdef __VERSION__
    meta_field("compiler", __VERSION__);
#endif
    // When the run happened, next to which commit produced it: two
    // BENCH_*.json artifacts with the same git_sha can still be hours
    // apart (rebuilds, reruns); the UTC timestamp disambiguates.
    std::time_t now = std::time(nullptr);
    std::tm utc{};
    if (gmtime_r(&now, &utc) != nullptr) {
      char stamp[32];
      if (std::strftime(stamp, sizeof stamp, "%Y-%m-%dT%H:%M:%SZ", &utc) >
          0) {
        meta_field("timestamp", stamp);
      }
    }
  }

  /// Add one provenance/config entry to the `meta` object.
  json_emitter& meta_field(const std::string& key, const std::string& value) {
    meta_.emplace_back(key, "\"" + exp::json_escape(value) + "\"");
    return *this;
  }

  /// Literals must land on the string overload, not convert to bool.
  json_emitter& meta_field(const std::string& key, const char* value) {
    return meta_field(key, std::string(value));
  }

  json_emitter& meta_field(const std::string& key, bool value) {
    meta_.emplace_back(key, value ? "true" : "false");
    return *this;
  }

  json_emitter& meta_field(const std::string& key, std::int64_t value) {
    std::ostringstream out;
    out << value;
    meta_.emplace_back(key, out.str());
    return *this;
  }

  json_emitter& field(const std::string& key, const std::string& value) {
    return raw(key, "\"" + exp::json_escape(value) + "\"");
  }

  json_emitter& field(const std::string& key, double value) {
    std::ostringstream out;
    out.precision(15);  // round-trips counters and rates, no 6-digit loss
    out << value;
    return raw(key, out.str());
  }

  json_emitter& field(const std::string& key, std::uint64_t value) {
    std::ostringstream out;
    out << value;
    return raw(key, out.str());
  }

  json_emitter& field(const std::string& key, std::int64_t value) {
    std::ostringstream out;
    out << value;
    return raw(key, out.str());
  }

  json_emitter& field(const std::string& key, int value) {
    return field(key, static_cast<std::int64_t>(value));
  }

  /// Attach a rendered exp::table as a JSON array of row objects.
  json_emitter& table(const std::string& key, const exp::table& t) {
    std::ostringstream out;
    t.print_json(out);
    return raw(key, out.str());
  }

  /// Attach pre-serialized JSON verbatim (nested objects/arrays).
  json_emitter& raw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
    return *this;
  }

  /// Write BENCH_<name>.json in the working directory.
  void write() const {
    const std::string path = "BENCH_" + name_ + ".json";
    std::ofstream out(path);
    out << "{\"bench\":\"" << exp::json_escape(name_) << "\"";
    out << ",\"meta\":{";
    for (std::size_t i = 0; i < meta_.size(); ++i) {
      if (i > 0) out << ",";
      out << "\"" << exp::json_escape(meta_[i].first)
          << "\":" << meta_[i].second;
    }
    out << "}";
    for (const auto& [key, json] : fields_) {
      out << ",\"" << exp::json_escape(key) << "\":" << json;
    }
    out << "}\n";
    std::cout << "\n[json] wrote " << path << "\n";
  }

 private:
  std::string name_;
  std::vector<std::pair<std::string, std::string>> meta_;
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// Nearest-rank percentile (p in [0,1]) of `v`, which it sorts; 0 when
/// empty.
inline double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(idx, v.size() - 1)];
}

class stopwatch {
 public:
  stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

}  // namespace elect::bench
