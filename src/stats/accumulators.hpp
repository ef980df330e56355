#pragma once

// Online statistical accumulators.
//
// The simulator's "lowest output is statistical data" (paper §5.1); these
// accumulators gather it in one pass with O(1) memory: Welford mean/variance
// and min/max, and a log2-bucket histogram for tail quantiles (recovery
// latency).

#include <array>
#include <cstdint>
#include <limits>

#include "util/check.hpp"

namespace hc3i::stats {

/// Running mean / variance / extrema (Welford's algorithm).
class Summary {
 public:
  /// Add one observation.
  void add(double x);

  /// Number of observations.
  std::uint64_t count() const { return n_; }
  /// Arithmetic mean (0 when empty).
  double mean() const { return n_ == 0 ? 0.0 : mean_; }
  /// Unbiased sample variance (0 with fewer than two observations).
  double variance() const { return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1); }
  /// Sample standard deviation.
  double stddev() const;
  /// Smallest observation (+inf when empty).
  double min() const { return min_; }
  /// Largest observation (-inf when empty).
  double max() const { return max_; }
  /// Sum of all observations.
  double sum() const { return sum_; }

 private:
  std::uint64_t n_{0};
  double mean_{0.0};
  double m2_{0.0};
  double sum_{0.0};
  double min_{std::numeric_limits<double>::infinity()};
  double max_{-std::numeric_limits<double>::infinity()};
};

/// Log2-bucket histogram over non-negative integer observations (latencies
/// in microseconds, byte counts): bucket 0 holds exact zeros, bucket i
/// (i >= 1) holds values in [2^(i-1), 2^i).  Exponential buckets cover the
/// full uint64 range in 65 counters with no configuration, which is what a
/// tail-latency accumulator needs — p99 of recovery latency spans orders of
/// magnitude between a quiet run and an overlapping-burst campaign.
/// Integer-only state keeps quantiles bit-reproducible across platforms.
class Log2Histogram {
 public:
  /// Record one observation.
  void add(std::uint64_t v);

  /// Number of observations recorded.
  std::uint64_t count() const { return total_; }
  /// Count in bucket i (0 = exact zeros, i = [2^(i-1), 2^i)).
  std::uint64_t bucket_count(std::size_t i) const;
  static constexpr std::size_t kBuckets = 65;

  /// Value below which `q` (in [0,1]) of the mass lies, by linear
  /// interpolation within the containing bucket, clamped to the observed
  /// [min, max] (0 when empty).
  double quantile(double q) const;

 private:
  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_{0};
  std::uint64_t min_{std::numeric_limits<std::uint64_t>::max()};
  std::uint64_t max_{0};
};

}  // namespace hc3i::stats
