#pragma once

// One JSON object per output line: the protocol between the benchmark
// binaries and benchmark/run.py.  Numbers keep every digit (%.17g), strings
// are escaped, and each line is flushed as soon as it is complete so run.py
// can time the gap between lines.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace hc3i::bench {

class JsonLine {
 public:
  JsonLine& num(const char* key, double v) {
    this->key(key);
    if (!std::isfinite(v)) {
      body_ += "null";
      return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    body_ += buf;
    return *this;
  }
  JsonLine& u64(const char* key, std::uint64_t v) {
    this->key(key);
    body_ += std::to_string(v);
    return *this;
  }
  JsonLine& boolean(const char* key, bool v) {
    this->key(key);
    body_ += v ? "true" : "false";
    return *this;
  }
  JsonLine& str(const char* key, std::string_view v) {
    this->key(key);
    quote(v);
    return *this;
  }
  /// `json` must already be valid JSON (an array or a nested object).
  JsonLine& raw(const char* key, const std::string& json) {
    this->key(key);
    body_ += json;
    return *this;
  }
  template <typename T>
  JsonLine& array(const char* key, const std::vector<T>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) out += ",";
      if constexpr (std::is_floating_point_v<T>) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.17g", values[i]);
        out += buf;
      } else {
        out += std::to_string(values[i]);
      }
    }
    return raw(key, out + "]");
  }

  std::string text() const { return "{" + body_ + "}"; }

  /// Write the object as one stdout line and flush it.
  void emit() const {
    const std::string line = text() + "\n";
    std::fwrite(line.data(), 1, line.size(), stdout);
    std::fflush(stdout);
  }

 private:
  void key(const char* k) {
    if (!body_.empty()) body_ += ",";
    quote(k);
    body_ += ":";
  }
  void quote(std::string_view s) {
    body_ += '"';
    for (const char ch : s) {
      switch (ch) {
        case '"':
          body_ += "\\\"";
          break;
        case '\\':
          body_ += "\\\\";
          break;
        case '\n':
          body_ += "\\n";
          break;
        default:
          if (static_cast<unsigned char>(ch) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", ch);
            body_ += buf;
          } else {
            body_ += ch;
          }
      }
    }
    body_ += '"';
  }

  std::string body_;
};

}  // namespace hc3i::bench
