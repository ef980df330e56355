// Unit tests for src/stats: accumulators, registry, table rendering.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "stats/accumulators.hpp"
#include "stats/registry.hpp"
#include "stats/table.hpp"
#include "util/check.hpp"

namespace hc3i::stats {
namespace {

TEST(Summary, EmptyIsNeutral) {
  Summary s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(Summary, MeanAndVariance) {
  Summary s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 4.571428, 1e-5);  // unbiased
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(Registry, CountersStartAtZero) {
  Registry r;
  EXPECT_EQ(r.get("nope"), 0u);
  r.counter("a").inc();
  r.counter("a").inc(4);
  EXPECT_EQ(r.get("a"), 5u);
}

TEST(Registry, SetAndRaise) {
  Registry r;
  r.set("gauge", 10);
  r.counter("gauge").raise(5);
  EXPECT_EQ(r.get("gauge"), 10u);
  r.counter("gauge").raise(15);
  EXPECT_EQ(r.get("gauge"), 15u);
}

TEST(Registry, Summaries) {
  Registry r;
  r.summary_handle("lat").add(1.0);
  r.summary_handle("lat").add(3.0);
  EXPECT_EQ(r.summary("lat").count(), 2u);
  EXPECT_DOUBLE_EQ(r.summary("lat").mean(), 2.0);
  EXPECT_EQ(r.summary("absent").count(), 0u);
}

TEST(Registry, HandleAndNameApisShareStorage) {
  Registry r;
  Counter& c = r.counter("hits");
  c.inc();
  c.inc(4);
  EXPECT_EQ(r.get("hits"), 5u);       // name shim reads handle-backed storage
  r.set("hits", 7);                   // and writes land where the handle reads
  EXPECT_EQ(c.value(), 7u);
  EXPECT_EQ(&r.counter("hits"), &c);  // re-resolution returns the same slot
  c.raise(3);
  EXPECT_EQ(c.value(), 7u);
  c.raise(11);
  EXPECT_EQ(r.get("hits"), 11u);
  c.set(2);
  EXPECT_EQ(r.get("hits"), 2u);

  Summary& s = r.summary_handle("lat");
  s.add(1.0);
  r.summary_handle("lat").add(3.0);
  EXPECT_EQ(r.summary("lat").count(), 2u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.0);
}

TEST(Registry, HandlesStayValidAsRegistryGrows) {
  Registry r;
  Counter& first = r.counter("first");
  first.inc();
  // Force enough interning to grow every internal structure several times.
  for (int i = 0; i < 3000; ++i) {
    r.counter("filler." + std::to_string(i)).inc();
  }
  first.inc();
  EXPECT_EQ(r.get("first"), 2u);
  EXPECT_EQ(r.counter_names().size(), 3001u);
}

TEST(Registry, ConstSummaryLookupTracksLaterObservations) {
  // Regression: the old implementation returned a shared static empty
  // summary for untouched names, so a reference taken before the first
  // add() never saw the data.
  Registry r;
  const Registry& cr = r;
  const Summary& s = cr.summary("lat");
  EXPECT_EQ(s.count(), 0u);
  r.summary_handle("lat").add(4.0);
  r.summary_handle("lat").add(6.0);
  EXPECT_EQ(s.count(), 2u);  // the earlier reference sees the live slot
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  // And the const read must not have invented a counter.
  EXPECT_TRUE(cr.counter_names().empty());
}

TEST(Registry, CopyIsDeepAndIndependent) {
  Registry r;
  r.counter("a").inc(3);
  r.summary_handle("lat").add(1.0);
  Registry copy = r;
  copy.counter("a").inc();
  copy.summary_handle("lat").add(9.0);
  EXPECT_EQ(r.get("a"), 3u);
  EXPECT_EQ(copy.get("a"), 4u);
  EXPECT_EQ(r.summary("lat").count(), 1u);
  EXPECT_EQ(copy.summary("lat").count(), 2u);
  r = copy;
  EXPECT_EQ(r.get("a"), 4u);
}

TEST(Registry, NamesSortedAndDump) {
  Registry r;
  r.counter("zulu").inc();
  r.counter("alpha").inc();
  const auto names = r.counter_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "alpha");
  EXPECT_NE(r.dump().find("zulu = 1"), std::string::npos);
}

TEST(Table, AsciiAlignsColumns) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(std::int64_t{42});
  t.row().cell("b").cell(3.14159, 2);
  const std::string out = t.to_ascii();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_EQ(t.at(0, 1), "42");
  // No line ends in a space: not the header, the rule, a full row, nor a
  // row whose last cells are missing.
  t.row().cell("only-first");
  const std::string out2 = t.to_ascii();
  std::istringstream lines(out2);
  int n = 0;
  for (std::string line; std::getline(lines, line); ++n) {
    ASSERT_FALSE(line.empty());
    EXPECT_NE(line.back(), ' ') << "line " << n << ": '" << line << "'";
  }
  EXPECT_EQ(n, 5);
  EXPECT_EQ(out2.substr(0, out2.find('\n')), "name        value");
}

TEST(Table, GuardsAgainstMisuse) {
  Table t({"only"});
  EXPECT_THROW(t.cell("before row"), CheckFailure);
  t.row().cell("ok");
  EXPECT_THROW(t.cell("too many"), CheckFailure);
  EXPECT_THROW(Table({}), CheckFailure);
}

}  // namespace
}  // namespace hc3i::stats
