#pragma once

// Simulated-time representation for the HC3I discrete-event simulator.
//
// Simulated time is an integer count of nanoseconds since the start of the
// simulation.  Integer ticks (rather than floating point) make event ordering
// exact and runs bit-reproducible across platforms, which the test suite
// relies on.  The paper's scenarios span 10 simulated hours (3.6e13 ns), far
// inside the int64 range.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

namespace hc3i {

/// A point in simulated time, in nanoseconds since simulation start.
/// Also used for durations (the arithmetic is the same); helpers below build
/// durations from human units.
struct SimTime {
  std::int64_t ns{0};

  constexpr bool operator==(const SimTime&) const = default;
  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime operator+(SimTime o) const { return SimTime{ns + o.ns}; }
  constexpr SimTime operator-(SimTime o) const { return SimTime{ns - o.ns}; }
  constexpr SimTime& operator+=(SimTime o) {
    ns += o.ns;
    return *this;
  }
  constexpr SimTime& operator-=(SimTime o) {
    ns -= o.ns;
    return *this;
  }
  /// Scale a duration (used for bandwidth / rate computations).
  constexpr SimTime operator*(std::int64_t k) const { return SimTime{ns * k}; }

  /// Duration expressed in fractional seconds (for statistics/report output).
  constexpr double seconds() const { return static_cast<double>(ns) * 1e-9; }
  /// Duration expressed in fractional minutes.
  constexpr double minutes_f() const { return seconds() / 60.0; }
  /// Duration expressed in fractional hours.
  constexpr double hours_f() const { return seconds() / 3600.0; }

  /// The zero instant / zero duration.
  static constexpr SimTime zero() { return SimTime{0}; }
  /// A time later than every event the simulator can schedule.
  static constexpr SimTime infinity() {
    return SimTime{std::numeric_limits<std::int64_t>::max()};
  }
  constexpr bool is_infinite() const { return ns == infinity().ns; }
};

/// Build a duration from nanoseconds.
constexpr SimTime nanoseconds(std::int64_t v) { return SimTime{v}; }
/// Build a duration from microseconds.
constexpr SimTime microseconds(std::int64_t v) { return SimTime{v * 1'000}; }
/// Build a duration from milliseconds.
constexpr SimTime milliseconds(std::int64_t v) { return SimTime{v * 1'000'000}; }
/// Build a duration from seconds.
constexpr SimTime seconds(std::int64_t v) { return SimTime{v * 1'000'000'000}; }
/// Build a duration from minutes.
constexpr SimTime minutes(std::int64_t v) { return seconds(v * 60); }
/// Build a duration from hours.
constexpr SimTime hours(std::int64_t v) { return seconds(v * 3600); }

/// Build a duration from a (non-negative, finite) count of fractional
/// seconds, rounding to the nearest nanosecond.  Used when converting random
/// exponential draws into simulated time.
SimTime from_seconds_f(double s);

/// Render a time/duration compactly for traces: "1h02m03.5s", "150us", "0".
std::string to_string(SimTime t);

/// Buffer size that fits every format_time() rendering (NUL included).
inline constexpr std::size_t kTimeBufSize = 64;

/// Format `t` exactly as to_string() would, but into a caller-provided
/// buffer of at least kTimeBufSize bytes; returns the length written
/// (excluding the NUL).  The allocation-free flavour obs::trace_text uses
/// to write each line's time prefix straight into its line buffer.
std::size_t format_time(SimTime t, char* buf, std::size_t cap);

}  // namespace hc3i
