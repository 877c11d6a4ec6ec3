#include "exp/table.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

#include "common/check.hpp"
#include "obs/series.hpp"

namespace elect::exp {

table::table(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void table::add_row(std::vector<std::string> cells) {
  ELECT_CHECK(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

void table::print(std::ostream& out) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c], row[c].size());
  }
  const auto pad = [&](const std::string& s, std::size_t w) {
    return s + std::string(w - s.size(), ' ');
  };
  out << "|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << " " << pad(headers_[c], widths[c]) << " |";
  }
  out << "\n|";
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out << std::string(widths[c] + 2, '-') << "|";
  }
  out << "\n";
  for (const auto& row : rows_) {
    out << "|";
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << " " << pad(row[c], widths[c]) << " |";
    }
    out << "\n";
  }
}

namespace {

/// True iff the whole cell is a number under the JSON grammar (strtod is
/// too permissive: it also accepts hex, "+1", ".5", "1.", "inf", ...).
bool is_number(const std::string& cell) {
  const char* p = cell.c_str();
  const char* const end = p + cell.size();
  const auto digit = [](char c) { return c >= '0' && c <= '9'; };
  if (p != end && *p == '-') ++p;
  if (p == end) return false;
  if (*p == '0') {
    ++p;
  } else if (digit(*p)) {
    while (p != end && digit(*p)) ++p;
  } else {
    return false;
  }
  if (p != end && *p == '.') {
    ++p;
    if (p == end || !digit(*p)) return false;
    while (p != end && digit(*p)) ++p;
  }
  if (p != end && (*p == 'e' || *p == 'E')) {
    ++p;
    if (p != end && (*p == '+' || *p == '-')) ++p;
    if (p == end || !digit(*p)) return false;
    while (p != end && digit(*p)) ++p;
  }
  return p == end;
}

void print_json_string(std::ostream& out, const std::string& s) {
  out << '"' << json_escape(s) << '"';
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  obs::json_escape_into(out, s);
  return out;
}

void table::print_json(std::ostream& out) const {
  out << "[";
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    if (r > 0) out << ",";
    out << "{";
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      if (c > 0) out << ",";
      print_json_string(out, headers_[c]);
      out << ":";
      if (is_number(rows_[r][c])) {
        out << rows_[r][c];
      } else {
        print_json_string(out, rows_[r][c]);
      }
    }
    out << "}";
  }
  out << "]";
}

std::string fmt(double value, int precision) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(precision);
  out << value;
  return out.str();
}

std::string fmt_int(double value) {
  std::ostringstream out;
  out << static_cast<long long>(std::llround(value));
  return out.str();
}

std::string fmt_ci(double mean, double halfwidth, int precision) {
  return fmt(mean, precision) + " ± " + fmt(halfwidth, precision);
}

}  // namespace elect::exp
