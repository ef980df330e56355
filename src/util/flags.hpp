#pragma once

// Minimal command-line flag parsing for the examples and bench binaries.
//
// Syntax: --name=value or --name value; bare --name sets a boolean flag.
// Unknown flags are an error (typos in experiment sweeps should fail loudly,
// not silently run the default configuration).

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace hc3i {

/// Parsed command line: flag map plus positional arguments.
class Flags {
 public:
  /// Parse argv. Throws CheckFailure on malformed input (a bare "--").
  static Flags parse(int argc, const char* const* argv);

  /// String flag with default.
  std::string get(const std::string& name, const std::string& def) const;
  /// Integer flag with default.  Throws CheckFailure if the flag is present
  /// but not a decimal integer within [lo, hi] ("1.5", "1e30", "-1" for a
  /// count).
  std::int64_t get_int(const std::string& name, std::int64_t def,
                       std::int64_t lo = INT64_MIN,
                       std::int64_t hi = INT64_MAX) const;
  /// Boolean flag: bare --name, true, 1 or yes => true; false, 0 or no =>
  /// false.  Throws CheckFailure on any other value (a typo is not false).
  bool get_bool(const std::string& name, bool def) const;

  /// True if the flag appeared on the command line.
  bool has(const std::string& name) const { return values_.count(name) > 0; }

  /// Positional (non-flag) arguments in order.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Names of all flags that were set (for unknown-flag validation).
  std::vector<std::string> names() const;

  /// "unknown flag --x (known: --a --b ...)" for the first set flag (in
  /// name order) that is not in `known`; empty when every flag is known.
  /// The message lists `known` itself, so it cannot drift from the check.
  std::string unknown_flag(std::initializer_list<std::string_view> known) const;

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

}  // namespace hc3i
