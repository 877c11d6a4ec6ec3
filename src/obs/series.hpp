// One declaration, two renderings: the metrics source behind both
// /metrics (Prometheus text exposition) and /report (nested JSON).
//
// A report type lists its series once, in a describe(series_writer&)
// function: key, help text, counter/gauge/histogram, value, and — for
// per-strategy, per-reactor, per-shard and per-peer rows — a label. The
// writer renders that list in one of two formats, so the two outputs
// cannot drift apart.
//
// Naming rule. A series' Prometheus name is its JSON path with the row
// dropped: "elect_" + the section keys + the series key, joined by '_',
// plus "_total" for counters and "_seconds" for histograms. Rows add
// their label instead: net.per_reactor[i].requests is
// elect_net_per_reactor_requests_total{reactor="i"}. Every family
// carries HELP and TYPE. Series names are part of the operational
// interface (README "Metrics"), so renaming a key is a breaking change.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace elect::obs {

/// A latency histogram as rendered: svc::latency_histogram's log2
/// layout, where bucket b holds nanosecond samples in [2^b, 2^(b+1)).
struct histogram_view {
  std::uint64_t count = 0;
  double sum_us = 0.0;
  /// Non-cumulative per-bucket counts.
  std::span<const std::uint64_t> buckets{};
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

class series_writer {
 public:
  enum class format : std::uint8_t { prometheus, json };

  /// A labelled group of rows. Prometheus renders one family per field
  /// with one `label="…"` sample per row. JSON nests the rows under
  /// `key`: with `id_key` empty, as an object keyed by the label value;
  /// otherwise as an array of row objects, each led by
  /// "<id_key>":<label value> (such rows are numbered, so the label
  /// value is an integer).
  struct row_group {
    std::string_view key{};
    std::string_view label{};
    std::string_view id_key{};
  };

  explicit series_writer(format f);

  void counter(std::string_view key, std::string_view help,
               std::uint64_t value);
  /// Integral gauges print exactly up to 2^53, reals in shortest
  /// round-trip form.
  void gauge(std::string_view key, std::string_view help, double value);
  /// A gauge of 1/0 in Prometheus, true/false in JSON.
  void flag(std::string_view key, std::string_view help, bool value);
  /// JSON: {"count","sum_us","p50_ms","p99_ms"}. Prometheus: a
  /// cumulative `_bucket{le=…}` family in seconds, then `_sum`/`_count`.
  void histogram(std::string_view key, std::string_view help,
                 const histogram_view& h);

  // JSON-only values: Prometheus has no string samples.
  void text(std::string_view key, std::string_view value);
  void texts(std::string_view key, std::span<const std::string> values);
  /// A pre-rendered JSON value (number, literal, array or object) under
  /// `key`; skipped when empty.
  void splice(std::string_view key, std::string_view json);

  /// A nested section: a JSON object under `key`, and `key` joins the
  /// Prometheus names of every series `body` declares.
  void section(std::string_view key, const std::function<void()>& body);

  /// `count` rows; row i is labelled `label(i)` and declares its fields
  /// through `row(i)`. Every row declares the same counters and gauges
  /// in the same order; rows hold no sections, rows or histograms.
  void rows(const row_group& group, std::size_t count,
            const std::function<std::string(std::size_t)>& label,
            const std::function<void(std::size_t)>& row);

  /// The rendered document (the writer is spent afterwards).
  [[nodiscard]] std::string take();

 private:
  void json_key(std::string_view key);
  void leaf(std::string_view key, std::string_view help,
            std::string_view type, std::string_view suffix,
            std::string_view value);

  format format_;
  std::string out_;
  /// Prometheus: "elect_" plus the open sections' keys, each with '_'.
  std::string path_ = "elect_";
  /// Prometheus, inside rows(): the current row's `{label="…"}` and one
  /// buffered family per field, flushed in order after the last row.
  std::string row_label_;
  std::vector<std::string> families_;
  std::size_t field_ = 0;
};

/// Append `s` to `out` escaped for a JSON string literal (no quotes).
void json_escape_into(std::string& out, std::string_view s);

}  // namespace elect::obs
