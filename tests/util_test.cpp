// Unit tests for src/util: time, RNG, quantity parsing, flags, checks.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "util/check.hpp"
#include "util/flags.hpp"
#include "util/quantity.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace hc3i {
namespace {

// ---------------------------------------------------------------------------
// SimTime
// ---------------------------------------------------------------------------

TEST(SimTime, UnitConstructorsAgree) {
  EXPECT_EQ(microseconds(1).ns, 1000);
  EXPECT_EQ(milliseconds(1), microseconds(1000));
  EXPECT_EQ(seconds(1), milliseconds(1000));
  EXPECT_EQ(minutes(2), seconds(120));
  EXPECT_EQ(hours(1), minutes(60));
}

TEST(SimTime, Arithmetic) {
  EXPECT_EQ(seconds(3) + seconds(4), seconds(7));
  EXPECT_EQ(seconds(10) - seconds(4), seconds(6));
  EXPECT_EQ(seconds(3) * 4, seconds(12));
  SimTime t = seconds(1);
  t += seconds(2);
  EXPECT_EQ(t, seconds(3));
}

TEST(SimTime, Ordering) {
  EXPECT_LT(seconds(1), seconds(2));
  EXPECT_LT(seconds(1), SimTime::infinity());
  EXPECT_TRUE(SimTime::infinity().is_infinite());
  EXPECT_FALSE(hours(10).is_infinite());
}

TEST(SimTime, FractionalConversions) {
  EXPECT_DOUBLE_EQ(seconds(90).minutes_f(), 1.5);
  EXPECT_DOUBLE_EQ(minutes(90).hours_f(), 1.5);
  EXPECT_DOUBLE_EQ(milliseconds(1500).seconds(), 1.5);
}

TEST(SimTime, FromSecondsRounds) {
  EXPECT_EQ(from_seconds_f(1.0), seconds(1));
  EXPECT_EQ(from_seconds_f(1e-9), nanoseconds(1));
  EXPECT_EQ(from_seconds_f(0.5).ns, 500'000'000);
}

TEST(SimTime, FromSecondsRejectsBadInput) {
  EXPECT_THROW(from_seconds_f(-1.0), CheckFailure);
  EXPECT_THROW(from_seconds_f(std::nan("")), CheckFailure);
}

TEST(SimTime, ToStringPicksUnits) {
  EXPECT_EQ(to_string(SimTime::zero()), "0");
  EXPECT_EQ(to_string(nanoseconds(5)), "5ns");
  EXPECT_EQ(to_string(microseconds(150)), "150us");
  EXPECT_EQ(to_string(SimTime::infinity()), "inf");
  EXPECT_NE(to_string(hours(2)).find("2h"), std::string::npos);
}

TEST(FormatTime, MatchesToString) {
  const SimTime cases[] = {SimTime::zero(),   nanoseconds(5),
                           microseconds(150), milliseconds(3),
                           seconds(42),       minutes(5) + seconds(30),
                           hours(2) + minutes(3) + milliseconds(4500),
                           SimTime::infinity()};
  for (const SimTime t : cases) {
    char buf[kTimeBufSize];
    const std::size_t n = format_time(t, buf, sizeof buf);
    EXPECT_EQ(std::string(buf, n), to_string(t));
  }
}

TEST(FormatTime, RoundingCarriesIntoMinutesAndHours) {
  EXPECT_EQ(to_string(minutes(59) + seconds(59) + milliseconds(999)),
            "1h00m00.0s");
  EXPECT_EQ(to_string(minutes(1) + seconds(59) + milliseconds(960)),
            "2m00.0s");
  EXPECT_EQ(to_string(minutes(1) + seconds(59) + milliseconds(940)),
            "1m59.9s");
}

TEST(FormatTime, RoundingSwitchesToTheNextUnit) {
  EXPECT_EQ(to_string(milliseconds(59'999)), "1m00.0s");
  EXPECT_EQ(to_string(microseconds(999'999)), "1s");
  EXPECT_EQ(to_string(nanoseconds(999'999)), "1ms");
  // The last values that still print in their own unit.
  EXPECT_EQ(to_string(milliseconds(59'994)), "59.99s");
  EXPECT_EQ(to_string(microseconds(999'499)), "999ms");
  EXPECT_EQ(to_string(nanoseconds(999'499)), "999us");
}

// ---------------------------------------------------------------------------
// RngStream
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicPerSeedAndStream) {
  RngStream a(42, 7), b(42, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DistinctStreamsDiffer) {
  RngStream a(42, 1), b(42, 2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += a.next_u64() == b.next_u64();
  EXPECT_EQ(same, 0);
}

TEST(Rng, DistinctSeedsDiffer) {
  RngStream a(1, 0), b(2, 0);
  EXPECT_NE(a.next_u64(), b.next_u64());
}

TEST(Rng, DoubleInUnitInterval) {
  RngStream r(3, 3);
  for (int i = 0; i < 1000; ++i) {
    const double x = r.next_double();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, NextBelowInRangeAndCoversAll) {
  RngStream r(9, 1);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = r.next_below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, NextBelowRejectsZero) {
  RngStream r(1, 1);
  EXPECT_THROW(r.next_below(0), CheckFailure);
}

TEST(Rng, UniformIntInclusiveBounds) {
  RngStream r(5, 5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = r.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ExponentialMeanConverges) {
  RngStream r(11, 0);
  double total = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) total += r.exponential(10.0);
  EXPECT_NEAR(total / n, 10.0, 0.5);
}

TEST(Rng, ExponentialRejectsNonPositiveMean) {
  RngStream r(1, 1);
  EXPECT_THROW(r.exponential(0.0), CheckFailure);
  EXPECT_THROW(r.exponential(-1.0), CheckFailure);
}

TEST(Rng, BernoulliEdges) {
  RngStream r(1, 1);
  EXPECT_FALSE(r.bernoulli(0.0));
  EXPECT_TRUE(r.bernoulli(1.0));
}

TEST(Rng, BernoulliRate) {
  RngStream r(1, 2);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += r.bernoulli(0.25);
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.02);
}

TEST(Rng, WeightedIndexRespectsWeights) {
  RngStream r(2, 2);
  std::vector<double> w{0.0, 3.0, 1.0};
  int counts[3] = {0, 0, 0};
  const int n = 20000;
  for (int i = 0; i < n; ++i) ++counts[r.weighted_index(w)];
  EXPECT_EQ(counts[0], 0);
  EXPECT_NEAR(static_cast<double>(counts[1]) / n, 0.75, 0.02);
}

TEST(Rng, WeightedIndexRejectsDegenerate) {
  RngStream r(1, 1);
  std::vector<double> zeros{0.0, 0.0};
  EXPECT_THROW(r.weighted_index(zeros), CheckFailure);
  std::vector<double> negative{1.0, -1.0};
  EXPECT_THROW(r.weighted_index(negative), CheckFailure);
}

TEST(Rng, StateRoundTrip) {
  RngStream r(7, 7);
  r.next_u64();
  const auto st = r.state();
  const std::uint64_t expected = r.next_u64();
  r.set_state(st);
  EXPECT_EQ(r.next_u64(), expected);
}

// ---------------------------------------------------------------------------
// Quantity parsing
// ---------------------------------------------------------------------------

struct DurationCase {
  const char* text;
  std::int64_t ns;
};

class ParseDuration : public ::testing::TestWithParam<DurationCase> {};

TEST_P(ParseDuration, Parses) {
  const auto v = parse_duration(GetParam().text);
  ASSERT_TRUE(v.has_value()) << GetParam().text;
  EXPECT_EQ(v->ns, GetParam().ns) << GetParam().text;
}

INSTANTIATE_TEST_SUITE_P(
    Units, ParseDuration,
    ::testing::Values(DurationCase{"10us", 10'000},
                      DurationCase{"150 us", 150'000},
                      DurationCase{"1ms", 1'000'000},
                      DurationCase{"2.5s", 2'500'000'000},
                      DurationCase{"30min", 1'800'000'000'000},
                      DurationCase{"30m", 1'800'000'000'000},
                      DurationCase{"10h", 36'000'000'000'000},
                      DurationCase{"1hr", 3'600'000'000'000},
                      DurationCase{"0", 0},
                      DurationCase{"7ns", 7},
                      DurationCase{"100ms", 100'000'000}));

TEST(ParseDurationEdge, Infinity) {
  const auto v = parse_duration("inf");
  ASSERT_TRUE(v.has_value());
  EXPECT_TRUE(v->is_infinite());
}

TEST(ParseDurationEdge, Rejects) {
  EXPECT_FALSE(parse_duration("").has_value());
  EXPECT_FALSE(parse_duration("fast").has_value());
  EXPECT_FALSE(parse_duration("10 parsecs").has_value());
  EXPECT_FALSE(parse_duration("-5s").has_value());
}

TEST(ParseBandwidth, CommonForms) {
  EXPECT_DOUBLE_EQ(*parse_bandwidth("80Mb/s"), 80e6 / 8);
  EXPECT_DOUBLE_EQ(*parse_bandwidth("100Mbps"), 100e6 / 8);
  EXPECT_DOUBLE_EQ(*parse_bandwidth("1Gb/s"), 1e9 / 8);
  EXPECT_DOUBLE_EQ(*parse_bandwidth("9600b/s"), 1200.0);
  EXPECT_TRUE(std::isinf(*parse_bandwidth("inf")));
}

TEST(ParseBandwidth, ByteRatesUseCapitalB) {
  // Networking convention: 80Mb/s is bits, 80MB/s is bytes.
  EXPECT_DOUBLE_EQ(*parse_bandwidth("80MB/s"), 80e6);
  EXPECT_DOUBLE_EQ(*parse_bandwidth("1kB/s"), 1e3);
}

TEST(ParseBandwidth, Rejects) {
  EXPECT_FALSE(parse_bandwidth("fast").has_value());
  EXPECT_FALSE(parse_bandwidth("80Tb/s").has_value());
  EXPECT_FALSE(parse_bandwidth("80M/s").has_value());
}

TEST(ParseBytes, BinaryPrefixes) {
  EXPECT_EQ(*parse_bytes("512"), 512u);
  EXPECT_EQ(*parse_bytes("512B"), 512u);
  EXPECT_EQ(*parse_bytes("4KB"), 4096u);
  EXPECT_EQ(*parse_bytes("8MB"), 8u * 1024 * 1024);
  EXPECT_EQ(*parse_bytes("1GB"), 1024ull * 1024 * 1024);
}

TEST(ParseScalars, DoubleAndUint) {
  EXPECT_DOUBLE_EQ(*parse_double("2.75"), 2.75);
  EXPECT_EQ(*parse_uint("12345"), 12345u);
  EXPECT_FALSE(parse_double("two").has_value());
  EXPECT_FALSE(parse_uint("-3").has_value());
  EXPECT_FALSE(parse_uint("3.5").has_value());
}

TEST(FormatBytes, PicksUnit) {
  EXPECT_EQ(format_bytes(512), "512B");
  EXPECT_EQ(format_bytes(8 * 1024 * 1024), "8.0MB");
}

// ---------------------------------------------------------------------------
// Flags
// ---------------------------------------------------------------------------

TEST(Flags, ParsesAllForms) {
  const char* argv[] = {"prog", "--alpha=3", "--beta=7", "--gamma",
                        "positional"};
  const Flags f = Flags::parse(5, argv);
  EXPECT_EQ(f.get_int("alpha", 0), 3);
  EXPECT_EQ(f.get_int("beta", 0), 7);
  EXPECT_TRUE(f.get_bool("gamma", false));
  ASSERT_EQ(f.positional().size(), 1u);
  EXPECT_EQ(f.positional()[0], "positional");
}

TEST(Flags, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  const Flags f = Flags::parse(1, argv);
  EXPECT_EQ(f.get("name", "fallback"), "fallback");
  EXPECT_EQ(f.get_int("n", 42), 42);
  EXPECT_FALSE(f.has("n"));
}

TEST(Flags, BooleanFlagsRejectAnythingButTheSixSpellings) {
  const char* argv[] = {"prog", "--a",    "--b=yes", "--c=1",  "--d=false",
                        "--e=0", "--f=no", "--g=ture", "--h="};
  const Flags f = Flags::parse(9, argv);
  EXPECT_TRUE(f.get_bool("a", false));
  EXPECT_TRUE(f.get_bool("b", false));
  EXPECT_TRUE(f.get_bool("c", false));
  EXPECT_FALSE(f.get_bool("d", true));
  EXPECT_FALSE(f.get_bool("e", true));
  EXPECT_FALSE(f.get_bool("f", true));
  EXPECT_TRUE(f.get_bool("absent", true));
  EXPECT_THROW(f.get_bool("g", false), CheckFailure);  // a typo is not false
  EXPECT_THROW(f.get_bool("h", false), CheckFailure);
}

TEST(Flags, BadNumberThrows) {
  const char* argv[] = {"prog", "--n=abc"};
  const Flags f = Flags::parse(2, argv);
  EXPECT_THROW(f.get_int("n", 0), CheckFailure);
}

// Integer flags parse as integers: a fraction, an exponent or an overflow
// is an error, never a truncating cast, and a value outside the caller's
// range is refused rather than wrapped.
TEST(Flags, IntegerFlagsRejectNonIntegersAndOutOfRange) {
  const char* argv[] = {"prog", "--frac=1.5", "--exp=1e30", "--neg=-1",
                        "--huge=99999999999999999999", "--ok=-7"};
  const Flags f = Flags::parse(6, argv);
  EXPECT_THROW(f.get_int("frac", 0), CheckFailure);
  EXPECT_THROW(f.get_int("exp", 0), CheckFailure);
  EXPECT_THROW(f.get_int("huge", 0), CheckFailure);
  EXPECT_EQ(f.get_int("neg", 0), -1);
  EXPECT_THROW(f.get_int("neg", 0, 0, 256), CheckFailure);
  EXPECT_EQ(f.get_int("ok", 0, -10, 10), -7);
  EXPECT_THROW(f.get_int("ok", 0, 0, 10), CheckFailure);
  EXPECT_EQ(f.get_int("absent", 300, 0, 256), 300);  // default unchecked
  try {
    f.get_int("frac", 0, 0, 256);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("--frac"), std::string::npos)
        << e.what();
  }
}

TEST(Flags, BareDoubleDashThrows) {
  const char* argv[] = {"prog", "--"};
  EXPECT_THROW(Flags::parse(2, argv), CheckFailure);
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

TEST(Check, PassesSilently) { HC3I_CHECK(1 + 1 == 2, "math works"); }

TEST(Check, ThrowsWithContext) {
  try {
    HC3I_CHECK(false, "the message");
    FAIL() << "should have thrown";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("the message"), std::string::npos);
    EXPECT_NE(what.find("util_test.cpp"), std::string::npos);
  }
}

}  // namespace
}  // namespace hc3i
