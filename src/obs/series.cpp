#include "obs/series.hpp"

#include <charconv>
#include <cmath>
#include <cstdio>

#include "common/check.hpp"

namespace elect::obs {

namespace {

/// Shortest round-trip text; non-finite values as JSON null or the
/// Prometheus spellings.
std::string real_text(double v, series_writer::format f) {
  if (!std::isfinite(v)) {
    if (f == series_writer::format::json) return "null";
    return std::isnan(v) ? "NaN" : (v > 0 ? "+Inf" : "-Inf");
  }
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, end);
}

}  // namespace

series_writer::series_writer(format f) : format_(f) {
  if (format_ == format::json) out_ = "{";
}

void series_writer::json_key(std::string_view key) {
  if (out_.back() != '{' && out_.back() != '[') out_ += ',';
  out_ += '"';
  out_ += key;
  out_ += "\":";
}

void series_writer::leaf(std::string_view key, std::string_view help,
                         std::string_view type, std::string_view suffix,
                         std::string_view value) {
  if (format_ == format::json) {
    json_key(key);
    out_ += value;
    return;
  }
  std::string* family = &out_;
  const bool header = row_label_.empty() || field_ == families_.size();
  if (!row_label_.empty()) {
    if (header) families_.emplace_back();
    family = &families_[field_++];
  }
  const std::string name = path_ + std::string(key) + std::string(suffix);
  if (header) {
    *family += "# HELP " + name + ' ' + std::string(help) + '\n';
    *family += "# TYPE " + name + ' ' + std::string(type) + '\n';
  }
  *family += name + row_label_ + ' ' + std::string(value) + '\n';
}

void series_writer::counter(std::string_view key, std::string_view help,
                            std::uint64_t value) {
  leaf(key, help, "counter", "_total", std::to_string(value));
}

void series_writer::gauge(std::string_view key, std::string_view help,
                          double value) {
  leaf(key, help, "gauge", "", real_text(value, format_));
}

void series_writer::flag(std::string_view key, std::string_view help,
                         bool value) {
  const bool json = format_ == format::json;
  leaf(key, help, "gauge", "",
       value ? (json ? "true" : "1") : (json ? "false" : "0"));
}

void series_writer::histogram(std::string_view key, std::string_view help,
                              const histogram_view& h) {
  ELECT_CHECK(row_label_.empty());
  if (format_ == format::json) {
    json_key(key);
    out_ += "{\"count\":" + std::to_string(h.count) +
            ",\"sum_us\":" + real_text(h.sum_us, format_) +
            ",\"p50_ms\":" + real_text(h.p50_ms, format_) +
            ",\"p99_ms\":" + real_text(h.p99_ms, format_) + '}';
    return;
  }
  const std::string name = path_ + std::string(key) + "_seconds";
  out_ += "# HELP " + name + ' ' + std::string(help) + '\n';
  out_ += "# TYPE " + name + " histogram\n";
  std::uint64_t cumulative = 0;
  for (std::size_t b = 0; b < h.buckets.size(); ++b) {
    cumulative += h.buckets[b];
    out_ += name + "_bucket{le=\"" +
            real_text(static_cast<double>(2ULL << b) / 1e9, format_) +
            "\"} " + std::to_string(cumulative) + '\n';
  }
  out_ += name + "_bucket{le=\"+Inf\"} " + std::to_string(h.count) + '\n';
  out_ += name + "_sum " + real_text(h.sum_us / 1e6, format_) + '\n';
  out_ += name + "_count " + std::to_string(h.count) + '\n';
}

void series_writer::text(std::string_view key, std::string_view value) {
  if (format_ != format::json) return;
  json_key(key);
  out_ += '"';
  json_escape_into(out_, value);
  out_ += '"';
}

void series_writer::texts(std::string_view key,
                          std::span<const std::string> values) {
  if (format_ != format::json) return;
  json_key(key);
  out_ += '[';
  for (const std::string& value : values) {
    if (out_.back() != '[') out_ += ',';
    out_ += '"';
    json_escape_into(out_, value);
    out_ += '"';
  }
  out_ += ']';
}

void series_writer::splice(std::string_view key, std::string_view json) {
  if (format_ != format::json || json.empty()) return;
  json_key(key);
  out_ += json;
}

void series_writer::section(std::string_view key,
                            const std::function<void()>& body) {
  ELECT_CHECK(row_label_.empty());
  if (format_ == format::json) {
    json_key(key);
    out_ += '{';
    body();
    out_ += '}';
    return;
  }
  const std::size_t mark = path_.size();
  path_ += std::string(key) + '_';
  body();
  path_.resize(mark);
}

void series_writer::rows(const row_group& group, std::size_t count,
                         const std::function<std::string(std::size_t)>& label,
                         const std::function<void(std::size_t)>& row) {
  ELECT_CHECK(row_label_.empty());
  if (format_ == format::json) {
    const bool keyed = group.id_key.empty();
    json_key(group.key);
    out_ += keyed ? '{' : '[';
    for (std::size_t i = 0; i < count; ++i) {
      if (keyed) {
        json_key(label(i));
      } else if (i > 0) {
        out_ += ',';
      }
      out_ += '{';
      if (!keyed) {
        json_key(group.id_key);
        out_ += label(i);
      }
      row(i);
      out_ += '}';
    }
    out_ += keyed ? '}' : ']';
    return;
  }
  const std::size_t mark = path_.size();
  path_ += std::string(group.key) + '_';
  for (std::size_t i = 0; i < count; ++i) {
    row_label_ = "{" + std::string(group.label) + "=\"" + label(i) + "\"}";
    field_ = 0;
    row(i);
  }
  row_label_.clear();
  for (const std::string& family : families_) out_ += family;
  families_.clear();
  path_.resize(mark);
}

std::string series_writer::take() {
  if (format_ == format::json) out_ += '}';
  return std::move(out_);
}

void json_escape_into(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

}  // namespace elect::obs
