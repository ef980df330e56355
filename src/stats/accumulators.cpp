#include "stats/accumulators.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

namespace hc3i::stats {

void Summary::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  min_ = std::min(min_, x);
  max_ = std::max(max_, x);
}

double Summary::stddev() const { return std::sqrt(variance()); }

void Log2Histogram::add(std::uint64_t v) {
  ++total_;
  ++counts_[std::bit_width(v)];  // bit_width(0) == 0: zeros get bucket 0
  min_ = std::min(min_, v);
  max_ = std::max(max_, v);
}

std::uint64_t Log2Histogram::bucket_count(std::size_t i) const {
  HC3I_CHECK(i < counts_.size(), "Log2Histogram: bucket index out of range");
  return counts_[i];
}

double Log2Histogram::quantile(double q) const {
  HC3I_CHECK(q >= 0.0 && q <= 1.0, "Log2Histogram: quantile must be in [0,1]");
  if (total_ == 0) return 0.0;
  const double target = q * static_cast<double>(total_);
  double cum = 0.0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target && counts_[i] > 0) {
      if (i == 0) return 0.0;
      const double lo = std::ldexp(1.0, static_cast<int>(i) - 1);
      const double frac = (target - cum) / static_cast<double>(counts_[i]);
      // The bucket spans [lo, 2*lo); the observations may not.
      return std::clamp(lo + frac * lo, static_cast<double>(min_),
                        static_cast<double>(max_));
    }
    cum = next;
  }
  return std::ldexp(1.0, 63);  // unreachable with total_ > 0
}

}  // namespace hc3i::stats
