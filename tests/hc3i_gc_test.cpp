// Garbage-collection scenarios (paper §3.5): CLC pruning, log pruning,
// GC network cost, and the safety property (a failure right after a GC
// still finds a complete recovery line).

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace hc3i::testing {
namespace {

/// Spec where both clusters take frequent timer CLCs and GC runs.
config::RunSpec gc_spec() {
  config::RunSpec spec = tiny_spec(2, 3);
  spec.timers.clusters[0].clc_period = minutes(2);
  spec.timers.clusters[1].clc_period = minutes(2);
  spec.timers.gc_period = minutes(15);
  return spec;
}

TEST(Gc, PrunesOldClcsToRecoveryLine) {
  MiniWorld w(gc_spec(), 1);
  // Exchange a little traffic so the recovery line advances.
  w.sim.run_until(minutes(5));
  w.send(NodeId{0}, NodeId{3});
  w.sim.run_until(minutes(10));
  w.send(NodeId{3}, NodeId{0});
  w.sim.run_until(minutes(14));
  const std::size_t before0 = w.runtime->store(ClusterId{0}).size();
  EXPECT_GE(before0, 5u);  // ~7 CLCs accumulated
  w.sim.run_until(minutes(16));
  ASSERT_GE(w.runtime->gc_events().size(), 2u);  // one record per cluster
  for (const auto& ev : w.runtime->gc_events()) {
    EXPECT_GT(ev.clcs_before, ev.clcs_after);
    EXPECT_LE(ev.clcs_after, 2u);  // the paper's Tables 2-3 shape
    EXPECT_GE(ev.clcs_after, 1u);
  }
  EXPECT_EQ(w.registry.get("gc.rounds"), 1u);
}

TEST(Gc, KeepsExactlyTheRecoveryLineWithoutTraffic) {
  // With zero inter-cluster traffic every DDV stays local, so each
  // cluster's worst case is its own last CLC: GC keeps exactly 1.
  MiniWorld w(gc_spec(), 1);
  w.sim.run_until(minutes(16));
  for (std::uint32_t c = 0; c < 2; ++c) {
    EXPECT_EQ(w.runtime->store(ClusterId{c}).size(), 1u) << "cluster " << c;
  }
}

TEST(Gc, FailureRightAfterGcStillRecovers) {
  // The safety property: pruning never removes a CLC a future failure
  // needs (for any failing cluster).
  for (std::uint32_t victim : {0u, 1u, 3u, 4u}) {
    MiniWorld w(gc_spec(), 3);
    w.sim.run_until(minutes(5));
    w.send(NodeId{0}, NodeId{3});
    w.sim.run_until(minutes(12));
    w.send(NodeId{4}, NodeId{1});
    w.sim.run_until(minutes(16));  // GC at 15min
    ASSERT_GE(w.runtime->gc_events().size(), 2u);
    w.fed.inject_failure(NodeId{victim});
    w.settle(minutes(2));
    EXPECT_TRUE(w.fed.ledger().validate(false).empty()) << "victim " << victim;
  }
}

TEST(Gc, PrunesAckedLogEntries) {
  MiniWorld w(gc_spec(), 1);
  w.settle();
  w.send(NodeId{0}, NodeId{3});
  w.settle();
  ASSERT_EQ(w.agent(NodeId{0}).log_size(), 1u);
  // Let both clusters advance well past the ack SN, then GC.
  w.sim.run_until(minutes(16));
  EXPECT_EQ(w.agent(NodeId{0}).log_size(), 0u);
  EXPECT_GE(w.registry.get("gc.log_entries_removed"), 1u);
}

TEST(Gc, NetworkCostMatchesPaperFormula) {
  // Paper §5.4: each GC implies N-1 requests, N-1 responses, N-1 collects
  // (inter-cluster) plus a broadcast in each cluster.
  MiniWorld w(gc_spec(), 1);
  const std::uint64_t ctl_inter_before = w.registry.get("net.ctl.inter.msgs");
  w.sim.run_until(minutes(16));
  const std::uint64_t ctl_inter = w.registry.get("net.ctl.inter.msgs") -
                                  ctl_inter_before;
  // N = 2: 1 request + 1 response + 1 collect = 3 inter-cluster messages
  // (no other inter-cluster control traffic flows in this run).
  EXPECT_EQ(ctl_inter, 3u);
}

TEST(Gc, DisabledWhenPeriodInfinite) {
  config::RunSpec spec = gc_spec();
  spec.timers.gc_period = SimTime::infinity();
  MiniWorld w(spec, 1);
  w.sim.run_until(minutes(30));
  EXPECT_EQ(w.registry.get("gc.rounds"), 0u);
  EXPECT_TRUE(w.runtime->gc_events().empty());
  EXPECT_GE(w.runtime->store(ClusterId{0}).size(), 10u);  // grows unboundedly
}

TEST(Gc, RepeatedRoundsKeepStoreBounded) {
  MiniWorld w(gc_spec(), 1);
  w.sim.run_until(hours(1));
  EXPECT_EQ(w.registry.get("gc.rounds"), 4u);  // at 15, 30, 45, 60 min
  EXPECT_LE(w.runtime->store(ClusterId{0}).size(), 8u);
  // High-water mark proves CLCs did accumulate between GCs.
  EXPECT_GE(w.registry.get("store.max_clcs.c0"), 7u);
}

TEST(Gc, AbortsWhenRollbackRaces) {
  // A failure between the GC's metadata snapshot and its collect phase
  // must abort the round (the snapshots are stale).
  config::RunSpec spec = gc_spec();
  // Slow the GC responses down so the race window is wide: huge latency
  // between clusters.
  spec.topology.inter[0][1].latency = seconds(2);
  spec.topology.inter[1][0].latency = seconds(2);
  MiniWorld w(spec, 1);
  w.sim.run_until(minutes(15) + seconds(1));  // GC request in flight
  w.fed.inject_failure(NodeId{4});            // rollback during the round
  w.sim.run_until(minutes(15) + seconds(30));
  EXPECT_EQ(w.registry.get("gc.aborted"), 1u);
  w.settle(minutes(2));
  EXPECT_TRUE(w.fed.ledger().validate(false).empty());
}

}  // namespace
}  // namespace hc3i::testing
