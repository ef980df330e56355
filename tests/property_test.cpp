// Property suite: every protocol, across seeds, cluster layouts and failure
// schedules, must finish with a clean consistency ledger — no ghost
// messages, no duplicates, no losses (paper §2.2's definition of a
// consistent state, enforced over whole executions).
//
// This is the randomized backbone of the test suite: the scenario tests
// pin down specific mechanisms; this sweep hunts for interleavings nobody
// thought of.

#include <gtest/gtest.h>

#include <tuple>

#include "driver/run.hpp"
#include "fault/campaign.hpp"
#include "test_util.hpp"

namespace hc3i::testing {
namespace {

struct PropertyCase {
  driver::ProtocolKind protocol;
  std::uint64_t seed;
  std::size_t clusters;
  std::uint32_t nodes;
  int failures;  ///< failures spread over the run (0 = failure-free)
};

void PrintTo(const PropertyCase& c, std::ostream* os) {
  *os << driver::to_string(c.protocol) << "/seed" << c.seed << "/" << c.clusters
      << "x" << c.nodes << "/f" << c.failures;
}

class ConsistencyProperty : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(ConsistencyProperty, LedgerStaysClean) {
  const PropertyCase& c = GetParam();
  driver::RunOptions opts;
  opts.spec = config::small_test_spec(c.clusters, c.nodes);
  opts.spec.application.total_time = hours(1);
  for (auto& t : opts.spec.timers.clusters) t.clc_period = minutes(7);
  if (c.protocol == driver::ProtocolKind::kHc3i) {
    opts.spec.timers.gc_period = minutes(13);
  }
  opts.protocol = c.protocol;
  opts.seed = c.seed;
  // Spread scripted failures across the run; rotate victims across
  // clusters and pick both coordinators and followers.
  RngStream rng(c.seed, 0xFA17);
  for (int i = 0; i < c.failures; ++i) {
    const SimTime at = minutes(9 + i * (45 / std::max(1, c.failures)));
    const auto victim = NodeId{static_cast<std::uint32_t>(
        rng.next_below(c.clusters * c.nodes))};
    opts.campaign.kills.push_back({at, victim});
  }
  opts.validate = false;  // collect violations; assert below for messages
  const auto result = driver::run_simulation(opts);
  EXPECT_TRUE(result.violations.empty())
      << result.violations.size() << " violations, first: "
      << (result.violations.empty() ? "" : result.violations.front());
  // The run must have actually exercised the machinery.
  EXPECT_GT(result.counter("app.sends"), 50u);
  if (c.failures > 0) {
    EXPECT_GE(result.counter("fault.injected"), 1u);
  }
}

std::vector<PropertyCase> all_cases() {
  std::vector<PropertyCase> cases;
  const driver::ProtocolKind kinds[] = {
      driver::ProtocolKind::kHc3i,
      driver::ProtocolKind::kIndependent,
      driver::ProtocolKind::kCoordinatedGlobal,
      driver::ProtocolKind::kPessimisticLog,
      driver::ProtocolKind::kHierarchicalCoordinated,
  };
  for (const auto kind : kinds) {
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
      cases.push_back({kind, seed, 2, 3, 0});
      cases.push_back({kind, seed, 2, 3, 2});
      cases.push_back({kind, seed, 3, 2, 3});
    }
  }
  // HC3I gets extra stress: more clusters, more faults, bigger clusters.
  for (const std::uint64_t seed : {4ull, 5ull, 6ull, 7ull}) {
    cases.push_back({driver::ProtocolKind::kHc3i, seed, 4, 2, 4});
    cases.push_back({driver::ProtocolKind::kHc3i, seed, 2, 6, 3});
    cases.push_back({driver::ProtocolKind::kHc3i, seed, 3, 4, 5});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, ConsistencyProperty,
                         ::testing::ValuesIn(all_cases()));

// Random (MTBF-driven) failures instead of scripted ones.
class AutoFailureProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AutoFailureProperty, Hc3iSurvivesPoissonFaults) {
  driver::RunOptions opts;
  opts.spec = config::small_test_spec(2, 3);
  opts.spec.application.total_time = hours(2);
  opts.spec.topology.mtbf = minutes(25);
  for (auto& t : opts.spec.timers.clusters) t.clc_period = minutes(8);
  opts.spec.timers.gc_period = minutes(30);
  opts.seed = GetParam();
  fault::StreamSpec stream;  // federation-wide, stopping at the horizon
  stream.mtbf = opts.spec.topology.mtbf;
  stream.stop = opts.spec.application.total_time;
  opts.campaign.streams.push_back(stream);
  const auto result = driver::run_simulation(opts);
  EXPECT_TRUE(result.violations.empty());
  EXPECT_GE(result.counter("fault.injected"), 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutoFailureProperty,
                         ::testing::Range<std::uint64_t>(1, 13));

// Replication-degree extension (paper §7): any degree must stay consistent.
class ReplicationProperty
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint64_t>> {
};

TEST_P(ReplicationProperty, AnyDegreeStaysConsistent) {
  driver::RunOptions opts;
  opts.spec = config::small_test_spec(2, 4);
  opts.spec.application.total_time = hours(1);
  opts.hc3i.replication = std::get<0>(GetParam());
  opts.seed = std::get<1>(GetParam());
  opts.campaign.kills.push_back({minutes(30), NodeId{2}});
  const auto result = driver::run_simulation(opts);
  EXPECT_TRUE(result.violations.empty());
}

INSTANTIATE_TEST_SUITE_P(
    Degrees, ReplicationProperty,
    ::testing::Combine(::testing::Values(0u, 1u, 2u, 3u),
                       ::testing::Values(1ull, 2ull)));

// Transitive-DDV extension (paper §7) under failures.
class TransitiveProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TransitiveProperty, StaysConsistentUnderFailures) {
  driver::RunOptions opts;
  opts.spec = config::small_test_spec(3, 2);
  opts.spec.application.total_time = hours(1);
  opts.hc3i.transitive_ddv = true;
  opts.seed = GetParam();
  opts.campaign.kills.push_back({minutes(20), NodeId{1}});
  opts.campaign.kills.push_back({minutes(40), NodeId{4}});
  const auto result = driver::run_simulation(opts);
  EXPECT_TRUE(result.violations.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, TransitiveProperty,
                         ::testing::Range<std::uint64_t>(1, 9));

/// Heavy-traffic spec: multi-megabyte messages keep several intra-cluster
/// transfers in flight at any instant, so every CLC commit has channel
/// state to capture.
driver::RunOptions heavy_traffic_opts(std::uint64_t seed) {
  driver::RunOptions opts;
  opts.spec = config::small_test_spec(2, 4);
  opts.spec.application.total_time = minutes(20);
  for (auto& c : opts.spec.application.clusters) {
    c.mean_compute = seconds(2);
    c.message_bytes = 4 * 1024 * 1024;  // ~0.4 s in flight on the SAN
  }
  for (auto& t : opts.spec.timers.clusters) t.clc_period = minutes(3);
  opts.seed = seed;
  opts.campaign.kills.push_back({minutes(13), NodeId{1}});
  opts.validate = false;
  return opts;
}

// Positive control: with channel capture on, the heavy-traffic scenario is
// clean — in-flight intra messages crossing a commit survive the rollback.
TEST(ChannelState, HeavyTrafficStaysConsistent) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const auto result = driver::run_simulation(heavy_traffic_opts(seed));
    EXPECT_TRUE(result.violations.empty())
        << "seed " << seed << ": "
        << (result.violations.empty() ? "" : result.violations.front());
  }
}

// Negative control: breaking channel-state capture must surface as ledger
// violations — proof the oracle actually detects protocol bugs.
TEST(NegativeControl, DisabledChannelCaptureIsCaught) {
  bool any_violation = false;
  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    auto opts = heavy_traffic_opts(seed);
    opts.hc3i.capture_channel_state = false;  // sabotage
    const auto result = driver::run_simulation(opts);
    any_violation = any_violation || !result.violations.empty();
  }
  EXPECT_TRUE(any_violation)
      << "sabotaged protocol passed the checker — the oracle is too weak";
}

}  // namespace
}  // namespace hc3i::testing
