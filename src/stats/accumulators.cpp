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

void Summary::merge(const Summary& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double n_total = na + nb;
  mean_ += delta * nb / n_total;
  m2_ += other.m2_ + delta * delta * na * nb / n_total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)),
      counts_(bins, 0) {
  HC3I_CHECK(hi > lo, "Histogram: hi must exceed lo");
  HC3I_CHECK(bins > 0, "Histogram: need at least one bin");
}

void Histogram::add(double x) {
  ++total_;
  if (x < lo_) {
    ++underflow_;
  } else if (x >= hi_) {
    ++overflow_;
  } else {
    auto idx = static_cast<std::size_t>((x - lo_) / width_);
    if (idx >= counts_.size()) idx = counts_.size() - 1;  // fp edge
    ++counts_[idx];
  }
}

std::uint64_t Histogram::bin_count(std::size_t i) const {
  HC3I_CHECK(i < counts_.size(), "Histogram: bin index out of range");
  return counts_[i];
}

double Histogram::bin_lo(std::size_t i) const {
  HC3I_CHECK(i < counts_.size(), "Histogram: bin index out of range");
  return lo_ + width_ * static_cast<double>(i);
}

double Histogram::quantile(double q) const {
  HC3I_CHECK(q >= 0.0 && q <= 1.0, "Histogram: quantile must be in [0,1]");
  if (total_ == 0) return lo_;
  const double target = q * static_cast<double>(total_);
  double cum = static_cast<double>(underflow_);
  if (cum >= target) return lo_;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    const double next = cum + static_cast<double>(counts_[i]);
    if (next >= target && counts_[i] > 0) {
      const double frac = (target - cum) / static_cast<double>(counts_[i]);
      return bin_lo(i) + frac * width_;
    }
    cum = next;
  }
  return hi_;
}

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

void Log2Histogram::merge(const Log2Histogram& other) {
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

}  // namespace hc3i::stats
