// Concurrent per-cluster recovery tests: the cluster-isolation property
// (disjoint-cluster incidents recover as if alone), kill-during-recovery
// queueing, phase triggers tolerating remote recoveries, per-cluster stream
// independence, interval-attributed telemetry with the post-campaign
// residual, overlap determinism and the same-cluster queue-bound check.

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "config/presets.hpp"
#include "driver/run.hpp"
#include "fault/campaign.hpp"
#include "test_util.hpp"
#include "util/check.hpp"

namespace hc3i::testing {
namespace {

/// A federation whose clusters cannot observe each other's load: traffic is
/// intra-cluster only and every link has infinite bandwidth (latency-only
/// timing), so the only cross-cluster interaction left is the rollback
/// alert — which carries no cost when the receiver holds no dependency.
driver::RunOptions isolated_opts(std::size_t clusters, std::uint32_t nodes,
                                 SimTime total) {
  driver::RunOptions opts;
  opts.spec = config::small_test_spec(clusters, nodes);
  opts.spec.application.total_time = total;
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (std::size_t c = 0; c < clusters; ++c) {
    opts.spec.topology.clusters[c].san.bytes_per_sec = kInf;
    auto& traffic = opts.spec.application.clusters[c].traffic;
    for (std::size_t j = 0; j < traffic.size(); ++j) {
      traffic[j] = j == c ? 1.0 : 0.0;
    }
  }
  for (auto& row : opts.spec.topology.inter) {
    for (auto& link : row) link.bytes_per_sec = kInf;
  }
  return opts;
}

/// Per-cluster counters a concurrent remote recovery must not perturb.
const char* const kClusterCounters[] = {
    "rollback.count", "rollback.faults", "rollback.cascade",
    "clc.total",      "clc.forced",      "clc.unforced",
};

std::uint64_t cluster_counter(const driver::RunResult& r, const char* base,
                              std::size_t c) {
  return r.counter(std::string(base) + ".c" + std::to_string(c));
}

// The tentpole property: N simultaneous single-cluster incidents in N
// disjoint clusters recover concurrently, and each cluster's counters match
// a run where only *its* incident happened.
TEST(FaultOverlap, DisjointIncidentsRecoverAsIfAlone) {
  constexpr std::size_t kClusters = 3;
  constexpr std::uint32_t kNodes = 3;
  const SimTime kill_at = minutes(15);
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    auto combined = isolated_opts(kClusters, kNodes, minutes(30));
    combined.seed = seed;
    for (std::uint32_t c = 0; c < kClusters; ++c) {
      combined.campaign.kills.push_back(
          fault::KillSpec{kill_at, NodeId{c * kNodes + 1}});
    }
    const auto combined_result = driver::run_simulation(combined);
    EXPECT_TRUE(combined_result.violations.empty()) << "seed " << seed;
    EXPECT_EQ(combined_result.counter("fault.injected"), kClusters);
    EXPECT_EQ(combined_result.counter("fault.skipped_overlap"), 0u);
    EXPECT_EQ(combined_result.counter("fault.queued_same_cluster"), 0u);
    ASSERT_EQ(combined_result.incidents.size(), kClusters);
    // All three injected at the same instant: a 3-way overlap.
    EXPECT_EQ(combined_result.fault_summary.max_overlap, kClusters);

    for (std::uint32_t c = 0; c < kClusters; ++c) {
      auto solo = isolated_opts(kClusters, kNodes, minutes(30));
      solo.seed = seed;
      solo.campaign.kills.push_back(
          fault::KillSpec{kill_at, NodeId{c * kNodes + 1}});
      const auto solo_result = driver::run_simulation(solo);
      EXPECT_TRUE(solo_result.violations.empty()) << "seed " << seed;
      for (const char* base : kClusterCounters) {
        EXPECT_EQ(cluster_counter(combined_result, base, c),
                  cluster_counter(solo_result, base, c))
            << base << ".c" << c << " seed " << seed;
      }
      // The incident's own timing is identical: concurrency elsewhere does
      // not stretch this cluster's recovery.
      const fault::Incident& solo_inc = solo_result.incidents.at(0);
      const fault::Incident& comb_inc = combined_result.incidents.at(c);
      EXPECT_EQ(comb_inc.cluster, ClusterId{c});
      EXPECT_TRUE(comb_inc.recovery_complete);
      EXPECT_EQ(comb_inc.injected_at, solo_inc.injected_at);
      EXPECT_EQ(comb_inc.recovered_at, solo_inc.recovered_at);
      EXPECT_EQ(comb_inc.concurrent_peak, kClusters);
      EXPECT_EQ(solo_inc.concurrent_peak, 1u);
    }
  }
}

// Kill-during-recovery: a second scripted kill into a still-recovering
// cluster queues (fault.queued_same_cluster) and fires at that cluster's
// recovery completion, leaving no stale protocol state behind.
TEST(FaultOverlap, SameClusterKillDuringRecoveryQueues) {
  driver::RunOptions opts;
  opts.spec = config::small_test_spec(2, 3);
  opts.campaign.kills.push_back(fault::KillSpec{minutes(20), NodeId{1}});
  // 20ms later is deep inside the first recovery (detection alone is 50ms).
  opts.campaign.kills.push_back(
      fault::KillSpec{minutes(20) + milliseconds(20), NodeId{2}});
  const auto result = driver::run_simulation(opts);
  EXPECT_TRUE(result.violations.empty());
  EXPECT_EQ(result.counter("fault.injected"), 2u);
  EXPECT_EQ(result.counter("fault.queued_same_cluster"), 1u);
  EXPECT_EQ(result.counter("fault.skipped_overlap"), 0u);
  ASSERT_EQ(result.incidents.size(), 2u);
  const fault::Incident& first = result.incidents[0];
  const fault::Incident& second = result.incidents[1];
  EXPECT_TRUE(first.recovery_complete);
  EXPECT_TRUE(second.recovery_complete);
  // The queued kill fired at (not before) the first recovery's completion.
  EXPECT_GE(second.injected_at, first.recovered_at);
  EXPECT_EQ(second.victim, NodeId{2});
  // Same cluster throughout: never more than one recovery in flight.
  EXPECT_EQ(result.fault_summary.max_overlap, 1u);
}

// Two clusters fail in the same instant, then cluster 0 fails again.  Every
// protocol must complete both simultaneous recoveries — under the global
// baselines the second global rollback supersedes the first, and its resume
// completes both clusters' faults — so the later cluster-0 kill injects
// instead of queueing behind a recovery that never ends.
TEST(FaultOverlap, SimultaneousFaultsAllRecoverUnderEveryProtocol) {
  for (const auto protocol : {driver::ProtocolKind::kHc3i,
                              driver::ProtocolKind::kIndependent,
                              driver::ProtocolKind::kCoordinatedGlobal,
                              driver::ProtocolKind::kPessimisticLog,
                              driver::ProtocolKind::kHierarchicalCoordinated}) {
    SCOPED_TRACE(driver::to_string(protocol));
    driver::RunOptions opts;
    opts.spec = config::small_test_spec(2, 8);  // configs/small
    opts.spec.application.total_time = hours(1);
    opts.protocol = protocol;
    opts.campaign.kills.push_back(fault::KillSpec{minutes(20), NodeId{2}});
    opts.campaign.kills.push_back(fault::KillSpec{minutes(20), NodeId{10}});
    opts.campaign.kills.push_back(fault::KillSpec{minutes(40), NodeId{3}});
    const auto result = driver::run_simulation(opts);
    EXPECT_EQ(result.counter("fault.injected"), 3u);
    EXPECT_EQ(result.counter("fault.recovery_complete"), 3u);
    EXPECT_EQ(result.incidents.size(), 3u);  // not ASSERT: keep looping
    for (const fault::Incident& inc : result.incidents) {
      EXPECT_TRUE(inc.recovery_complete) << "incident #" << inc.id;
    }
    EXPECT_TRUE(result.violations.empty());
  }
}

// A phase-targeted trigger whose moment arrives while a *remote* cluster is
// recovering still fires: the remote rollback does not invalidate this
// cluster's phase window.
TEST(FaultOverlap, TriggerToleratesRemoteRecovery) {
  // Probe: find when cluster 0's first CLC commit past the 8-minute mark
  // actually lands (commits are not on an exact period grid).
  const auto make_trigger = [](SimTime not_before) {
    fault::PhaseTriggerSpec trigger;
    trigger.cluster = ClusterId{0};
    trigger.phase = fault::Phase::kCommit;
    trigger.occurrence = 1;
    trigger.victim = NodeId{1};
    trigger.not_before = not_before;
    return trigger;
  };
  driver::RunOptions probe;
  probe.spec = config::small_test_spec(2, 3);
  probe.campaign.phase_triggers.push_back(make_trigger(minutes(8)));
  const auto probed = driver::run_simulation(probe);
  ASSERT_EQ(probed.incidents.size(), 1u);
  const SimTime commit_at = probed.incidents[0].injected_at;

  // Real run: kill a cluster-1 node 10ms before that commit, so the commit
  // lands inside cluster 1's ~56ms recovery window.
  driver::RunOptions opts;
  opts.spec = config::small_test_spec(2, 3);
  opts.campaign.kills.push_back(
      fault::KillSpec{commit_at - milliseconds(10), NodeId{4}});
  opts.campaign.phase_triggers.push_back(
      make_trigger(commit_at - milliseconds(5)));

  const auto result = driver::run_simulation(opts);
  EXPECT_TRUE(result.violations.empty());
  EXPECT_EQ(result.counter("fault.injected"), 2u);
  EXPECT_EQ(result.counter("fault.skipped_overlap"), 0u);
  ASSERT_EQ(result.incidents.size(), 2u);
  EXPECT_STREQ(result.incidents[1].source, "phase");
  EXPECT_EQ(result.incidents[1].cluster, ClusterId{0});
  // The phase kill recovered while cluster 1 was still recovering.
  EXPECT_EQ(result.fault_summary.max_overlap, 2u);
}

// A per-cluster stream is deaf to remote recoveries: adding a scripted kill
// in another cluster leaves the stream's own cluster byte-identical.
TEST(FaultOverlap, PerClusterStreamIgnoresRemoteRecovery) {
  const auto make_opts = [](bool with_remote_kill) {
    auto opts = isolated_opts(2, 3, hours(1));
    fault::StreamSpec stream;
    stream.cluster = ClusterId{1};
    stream.mtbf = minutes(10);
    stream.start = minutes(5);
    stream.stop = minutes(55);
    opts.campaign.streams.push_back(stream);
    if (with_remote_kill) {
      opts.campaign.kills.push_back(fault::KillSpec{minutes(12), NodeId{1}});
    }
    return opts;
  };
  const auto base = driver::run_simulation(make_opts(false));
  const auto with_kill = driver::run_simulation(make_opts(true));
  EXPECT_TRUE(base.violations.empty());
  EXPECT_TRUE(with_kill.violations.empty());
  EXPECT_EQ(with_kill.counter("fault.injected"),
            base.counter("fault.injected") + 1);
  for (const char* name : kClusterCounters) {
    EXPECT_EQ(cluster_counter(with_kill, name, 1),
              cluster_counter(base, name, 1))
        << name << ".c1";
  }
  // Stream firings hit the same victims at the same instants.
  std::size_t si = 0;
  for (const fault::Incident& inc : with_kill.incidents) {
    if (std::string(inc.source) != "stream") continue;
    ASSERT_LT(si, base.incidents.size());
    EXPECT_EQ(inc.injected_at, base.incidents[si].injected_at);
    EXPECT_EQ(inc.victim, base.incidents[si].victim);
    ++si;
  }
  EXPECT_EQ(si, base.incidents.size());
}

// A stream whose own cluster is recovering blocks without consuming a draw
// and redraws at its own cluster's completion; back-to-back scripted kills
// keep the cluster busy long enough to exercise the blocked path.
TEST(FaultOverlap, StreamRedrawsAtOwnClusterCompletion) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    auto opts = isolated_opts(2, 3, hours(1));
    opts.seed = seed;
    for (int k = 0; k < 3; ++k) {
      opts.campaign.kills.push_back(
          fault::KillSpec{minutes(30) + milliseconds(20 * k), NodeId{4}});
    }
    fault::StreamSpec stream;
    stream.cluster = ClusterId{1};
    stream.mtbf = seconds(30);
    stream.start = minutes(30);
    stream.stop = minutes(32);
    opts.campaign.streams.push_back(stream);
    const auto result = driver::run_simulation(opts);
    EXPECT_TRUE(result.violations.empty()) << "seed " << seed;
    EXPECT_EQ(result.counter("fault.queued_same_cluster"), 2u);
    for (const fault::Incident& inc : result.incidents) {
      EXPECT_EQ(inc.cluster, ClusterId{1});
      EXPECT_TRUE(inc.recovery_complete) << "incident " << inc.id;
    }
    // Every injection the engine admitted really happened.
    EXPECT_EQ(result.counter("fault.injected"), result.incidents.size());
  }
}

// Interval attribution under real overlap: incident rows plus the
// post-campaign residual sum exactly to the end-of-run counters, and the
// overlap columns report the concurrency.
TEST(FaultOverlap, OverlapRowsPlusResidualSumExactly) {
  driver::RunOptions opts;
  opts.spec = config::scale_federation_spec(4, 8, minutes(30));
  opts.campaign = fault::reference_overlap_campaign(4, 8, minutes(30));
  const auto result = driver::run_simulation(opts);
  EXPECT_TRUE(result.violations.empty());
  ASSERT_GE(result.incidents.size(), 8u);
  ASSERT_TRUE(result.fault_summary.has_residual);
  EXPECT_GE(result.fault_summary.max_overlap, 3u);
  EXPECT_GE(result.counter("fault.queued_same_cluster"), 1u);

  expect_incident_rows_sum_to_run_cost(result);
  std::uint32_t peak = 0;
  for (const fault::Incident& inc : result.incidents) {
    peak = std::max(peak, inc.concurrent_peak);
  }
  EXPECT_EQ(peak, result.fault_summary.max_overlap);
}

// Fixed-seed determinism with burst + stream + trigger overlap: two runs of
// the overlap campaign produce byte-identical counter dumps.
TEST(FaultOverlap, OverlapCampaignIsDeterministic) {
  for (const std::uint64_t seed : {1ull, 7ull, 42ull}) {
    driver::RunOptions opts;
    opts.spec = config::scale_federation_spec(4, 8, minutes(30));
    opts.campaign = fault::reference_overlap_campaign(4, 8, minutes(30));
    opts.seed = seed;
    const auto a = driver::run_simulation(opts);
    const auto b = driver::run_simulation(opts);
    EXPECT_EQ(a.registry.dump(), b.registry.dump()) << "seed " << seed;
    ASSERT_EQ(a.incidents.size(), b.incidents.size());
    for (std::size_t i = 0; i < a.incidents.size(); ++i) {
      EXPECT_EQ(a.incidents[i].injected_at, b.incidents[i].injected_at);
      EXPECT_EQ(a.incidents[i].recovered_at, b.incidents[i].recovered_at);
      EXPECT_EQ(a.incidents[i].victim, b.incidents[i].victim);
    }
  }
}

// The queue-bound validator rejects campaigns whose same-cluster queue
// cannot drain before the quiesce bound, naming the offending injector.
TEST(FaultOverlap, QueueBoundCheckNamesTheInjector) {
  const config::RunSpec spec = config::small_test_spec(2, 4);
  const SimTime bound = spec.application.total_time;

  fault::Campaign dense;
  fault::BurstSpec burst;
  burst.cluster = ClusterId{1};
  burst.kills = 3;
  burst.at = bound - milliseconds(1);  // recoveries cannot drain in 1ms
  burst.window = SimTime::zero();
  dense.bursts.push_back(burst);
  try {
    fault::check_queue_bounds(dense, spec, bound);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("[burst] #1"), std::string::npos) << what;
    EXPECT_NE(what.find("queues behind cluster 1"), std::string::npos) << what;
    // The kill and the bound sit 1 ms apart and print apart.
    EXPECT_NE(what.find("scheduled at 0h29m59.999s"), std::string::npos)
        << what;
    EXPECT_NE(what.find("quiesce bound 0h30m00.000s"), std::string::npos)
        << what;
  }

  // The reference overlap campaign itself is well-formed.
  const config::RunSpec scale = config::scale_federation_spec(4, 8, minutes(30));
  EXPECT_NO_THROW(fault::check_queue_bounds(
      fault::reference_overlap_campaign(4, 8, minutes(30)), scale,
      minutes(30)));
}

}  // namespace
}  // namespace hc3i::testing
