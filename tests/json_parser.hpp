// A minimal recursive-descent JSON parser for the tests (numbers,
// strings, bools, null, arrays, objects — everything the reports emit).
// No third-party dependency: the point is to parse what we actually
// wrote, not to validate JSON in general, so unescaping is limited to
// what obs::json_escape_into produces.
#pragma once

#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace elect {

struct json_value;
using json_object = std::map<std::string, std::shared_ptr<json_value>>;
using json_array = std::vector<std::shared_ptr<json_value>>;

struct json_value {
  std::variant<std::nullptr_t, bool, double, std::string, json_array,
               json_object>
      v;

  [[nodiscard]] bool is_number() const {
    return std::holds_alternative<double>(v);
  }
  [[nodiscard]] double number() const { return std::get<double>(v); }
  [[nodiscard]] const json_object& object() const {
    return std::get<json_object>(v);
  }
  [[nodiscard]] const json_array& array() const {
    return std::get<json_array>(v);
  }
};

class json_parser {
 public:
  explicit json_parser(const std::string& text) : text_(text) {}

  /// Parse one complete document; empty on any malformation (including
  /// trailing bytes — the report must be exactly one object).
  [[nodiscard]] std::shared_ptr<json_value> parse() {
    auto value = parse_value();
    skip_ws();
    if (!ok_ || at_ != text_.size()) return nullptr;
    return value;
  }

 private:
  void skip_ws() {
    while (at_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[at_]))) {
      ++at_;
    }
  }

  bool consume(char c) {
    skip_ws();
    if (at_ < text_.size() && text_[at_] == c) {
      ++at_;
      return true;
    }
    ok_ = false;
    return false;
  }

  bool literal(const std::string& word) {
    if (text_.compare(at_, word.size(), word) == 0) {
      at_ += word.size();
      return true;
    }
    ok_ = false;
    return false;
  }

  std::shared_ptr<json_value> parse_value() {
    skip_ws();
    if (at_ >= text_.size()) {
      ok_ = false;
      return nullptr;
    }
    const char c = text_[at_];
    auto value = std::make_shared<json_value>();
    switch (c) {
      case '{': {
        json_object object;
        ++at_;
        skip_ws();
        if (at_ < text_.size() && text_[at_] == '}') {
          ++at_;
        } else {
          do {
            std::string key;
            if (!parse_string(key)) return nullptr;
            if (!consume(':')) return nullptr;
            auto member = parse_value();
            if (!ok_) return nullptr;
            object.emplace(std::move(key), std::move(member));
            skip_ws();
          } while (at_ < text_.size() && text_[at_] == ',' && ++at_);
          if (!consume('}')) return nullptr;
        }
        value->v = std::move(object);
        return value;
      }
      case '[': {
        json_array array;
        ++at_;
        skip_ws();
        if (at_ < text_.size() && text_[at_] == ']') {
          ++at_;
        } else {
          do {
            auto element = parse_value();
            if (!ok_) return nullptr;
            array.push_back(std::move(element));
            skip_ws();
          } while (at_ < text_.size() && text_[at_] == ',' && ++at_);
          if (!consume(']')) return nullptr;
        }
        value->v = std::move(array);
        return value;
      }
      case '"': {
        std::string s;
        if (!parse_string(s)) return nullptr;
        value->v = std::move(s);
        return value;
      }
      case 't':
        if (!literal("true")) return nullptr;
        value->v = true;
        return value;
      case 'f':
        if (!literal("false")) return nullptr;
        value->v = false;
        return value;
      case 'n':
        if (!literal("null")) return nullptr;
        value->v = nullptr;
        return value;
      default: {
        const std::size_t start = at_;
        while (at_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[at_])) ||
                text_[at_] == '-' || text_[at_] == '+' || text_[at_] == '.' ||
                text_[at_] == 'e' || text_[at_] == 'E')) {
          ++at_;
        }
        if (at_ == start) {
          ok_ = false;
          return nullptr;
        }
        value->v = std::stod(text_.substr(start, at_ - start));
        return value;
      }
    }
  }

  bool parse_string(std::string& out) {
    skip_ws();
    if (!consume('"')) return false;
    out.clear();
    while (at_ < text_.size() && text_[at_] != '"') {
      char c = text_[at_++];
      if (c == '\\' && at_ < text_.size()) {
        const char escaped = text_[at_++];
        switch (escaped) {
          case 'n': c = '\n'; break;
          case 't': c = '\t'; break;
          case 'r': c = '\r'; break;
          default: c = escaped; break;  // \" \\ \/ — and json_escape_into
        }                               // emits nothing more exotic
      }
      out.push_back(c);
    }
    return consume('"');
  }

  const std::string& text_;
  std::size_t at_ = 0;
  bool ok_ = true;
};

}  // namespace elect
