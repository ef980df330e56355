#include "util/time.hpp"

#include <cmath>
#include <cstdio>

#include "util/check.hpp"

namespace hc3i {

SimTime from_seconds_f(double s) {
  HC3I_CHECK(std::isfinite(s), "from_seconds_f: non-finite seconds value");
  HC3I_CHECK(s >= 0.0, "from_seconds_f: negative duration");
  const double ns = s * 1e9;
  HC3I_CHECK(ns < 9.2e18, "from_seconds_f: duration overflows SimTime");
  return SimTime{static_cast<std::int64_t>(std::llround(ns))};
}

std::size_t format_time(SimTime t, char* buf, std::size_t cap) {
  HC3I_CHECK(cap >= kTimeBufSize, "format_time: buffer too small");
  int n = 0;
  const std::int64_t ns = t.ns;
  if (t.is_infinite()) {
    n = std::snprintf(buf, cap, "inf");
  } else if (ns == 0) {
    n = std::snprintf(buf, cap, "0");
  } else if (ns < 1'000) {
    n = std::snprintf(buf, cap, "%lldns", static_cast<long long>(ns));
  } else if (ns < 999'500) {
    // Each sub-minute unit ends where its printed digits would round up to
    // the next unit's first value (999.5us is "1e+03us" at three digits),
    // so that value prints in the next unit instead.
    n = std::snprintf(buf, cap, "%.3gus", static_cast<double>(ns) / 1e3);
  } else if (ns < 999'500'000) {
    n = std::snprintf(buf, cap, "%.3gms", static_cast<double>(ns) / 1e6);
  } else if (ns < 59'995'000'000) {
    n = std::snprintf(buf, cap, "%.4gs", static_cast<double>(ns) / 1e9);
  } else {
    // Round to the printed 0.1 s first, so 59.96 s carries into the minute
    // instead of printing as 60.0 s.
    const long long tenths = (ns + 50'000'000) / 100'000'000;
    const long long h = tenths / 36'000;
    const long long m = tenths / 600 % 60;
    const long long s = tenths % 600;
    n = h > 0 ? std::snprintf(buf, cap, "%lldh%02lldm%02lld.%llds", h, m,
                              s / 10, s % 10)
              : std::snprintf(buf, cap, "%lldm%02lld.%llds", m, s / 10,
                              s % 10);
  }
  return n > 0 ? static_cast<std::size_t>(n) : 0;
}

std::string to_string(SimTime t) {
  char buf[kTimeBufSize];
  return std::string(buf, format_time(t, buf, sizeof buf));
}

}  // namespace hc3i
