// Baseline-protocol scenarios: each baseline must survive failures with a
// clean ledger, and must exhibit its characteristic behaviour (domino for
// independent, whole-federation rollback for coordinated-global, single-node
// rollback for pessimistic logging, fewer WAN crossings for hierarchical).

#include <gtest/gtest.h>

#include "driver/run.hpp"
#include "test_util.hpp"

namespace hc3i::testing {
namespace {

driver::RunOptions base_opts(driver::ProtocolKind kind, std::uint64_t seed = 1) {
  driver::RunOptions opts;
  opts.spec = config::small_test_spec(2, 3);
  opts.spec.application.total_time = hours(1);
  opts.spec.timers.clusters[0].clc_period = minutes(10);
  opts.spec.timers.clusters[1].clc_period = minutes(10);
  opts.protocol = kind;
  opts.seed = seed;
  return opts;
}

TEST(CoordinatedGlobal, FailureFreeRunCheckpoints) {
  const auto result = driver::run_simulation(
      base_opts(driver::ProtocolKind::kCoordinatedGlobal));
  // Global rounds: initial + ~5 timer rounds; every cluster stores each.
  EXPECT_GE(result.clc_total(ClusterId{0}), 5u);
  EXPECT_EQ(result.clc_total(ClusterId{0}), result.clc_total(ClusterId{1}));
  EXPECT_EQ(result.clc_forced(ClusterId{0}), 0u);  // nothing is forced
  EXPECT_TRUE(result.violations.empty());
}

TEST(CoordinatedGlobal, FailureRollsBackEveryCluster) {
  auto opts = base_opts(driver::ProtocolKind::kCoordinatedGlobal);
  opts.campaign.kills.push_back({minutes(25), NodeId{1}});
  const auto result = driver::run_simulation(opts);
  // Both clusters roll back — the cost the paper's hierarchy avoids.
  EXPECT_EQ(result.counter("rollback.count"), 2u);
  EXPECT_GE(result.counter("app.restores"), 6u);  // every node restored
  EXPECT_TRUE(result.violations.empty());
}

TEST(CoordinatedGlobal, FreezeTimeIsObserved) {
  const auto result = driver::run_simulation(
      base_opts(driver::ProtocolKind::kCoordinatedGlobal));
  EXPECT_GT(result.registry.summary("global.freeze_s").count(), 0u);
  EXPECT_GT(result.registry.summary("global.freeze_s").mean(), 0.0);
}

TEST(HierarchicalCoordinated, FewerWanControlMessagesThanFlat) {
  const auto flat = driver::run_simulation(
      base_opts(driver::ProtocolKind::kCoordinatedGlobal));
  const auto hier = driver::run_simulation(
      base_opts(driver::ProtocolKind::kHierarchicalCoordinated));
  // Same number of global checkpoints...
  EXPECT_EQ(flat.clc_total(ClusterId{0}), hier.clc_total(ClusterId{0}));
  // ...but the two-level variant crosses the WAN once per cluster instead
  // of once per node ([9]'s claim).
  EXPECT_LT(hier.counter("net.ctl.inter.msgs"),
            flat.counter("net.ctl.inter.msgs") / 2);
  EXPECT_TRUE(hier.violations.empty());
}

TEST(HierarchicalCoordinated, RecoversFromFailure) {
  auto opts = base_opts(driver::ProtocolKind::kHierarchicalCoordinated);
  opts.campaign.kills.push_back({minutes(25), NodeId{4}});
  const auto result = driver::run_simulation(opts);
  EXPECT_EQ(result.counter("rollback.count"), 2u);  // all clusters
  EXPECT_TRUE(result.violations.empty());
}

TEST(PessimisticLog, OnlyTheFailedNodeRollsBack) {
  auto opts = base_opts(driver::ProtocolKind::kPessimisticLog);
  opts.campaign.kills.push_back({minutes(25), NodeId{1}});
  const auto result = driver::run_simulation(opts);
  EXPECT_EQ(result.counter("rollback.count"), 1u);
  EXPECT_EQ(result.counter("app.restores"), 1u);  // exactly one node
  EXPECT_TRUE(result.violations.empty());
}

TEST(PessimisticLog, ReplaysLoggedDeliveries) {
  auto opts = base_opts(driver::ProtocolKind::kPessimisticLog);
  opts.campaign.kills.push_back({minutes(37), NodeId{2}});
  const auto result = driver::run_simulation(opts);
  // The victim had deliveries after its last checkpoint; they must have
  // been replayed from the channel memory.
  EXPECT_GE(result.counter("pess.replayed"), 1u);
  EXPECT_TRUE(result.violations.empty());
}

TEST(PessimisticLog, LoggingDoublesDeliveryTraffic) {
  const auto result = driver::run_simulation(
      base_opts(driver::ProtocolKind::kPessimisticLog));
  // Every delivery ships one copy to the channel memory.
  EXPECT_EQ(result.counter("pess.log_copies"), result.counter("app.delivered"));
}

TEST(Independent, RunsCleanWithoutFailures) {
  const auto result =
      driver::run_simulation(base_opts(driver::ProtocolKind::kIndependent));
  EXPECT_EQ(result.counter("cic.forced_triggers.c0") +
                result.counter("cic.forced_triggers.c1"),
            0u);  // the forcing rule is off
  EXPECT_TRUE(result.violations.empty());
}

TEST(Independent, DominoEffectRollsDeeperThanHc3i) {
  // Deterministic timeline demonstrating §2.2's argument for forcing:
  //   t≈3min  cluster 0 commits CLC sn=2 (timer)
  //   t=5min  cluster 0 -> cluster 1 message m carrying SN 2
  //             HC3I: forced CLC in cluster 1 right before delivering m
  //             independent: m delivered immediately, DDV raised lazily
  //   t=10min cluster 1 commits its timer CLC (contaminated by m)
  //   t=12min cluster 0 fails and restores SN 2 => m is undone.
  // HC3I rolls cluster 1 back to the forced CLC taken at 5min; the
  // independent baseline has no checkpoint between the initial CLC and the
  // contamination, so it dominoes all the way to SN 1.
  auto run = [](bool independent) {
    config::RunSpec spec = tiny_spec(2, 2);
    spec.timers.clusters[0].clc_period = minutes(4);
    spec.timers.clusters[1].clc_period = seconds(90);
    MiniWorld w(spec, 1, {}, independent);
    // Cluster 0 commits sn=2 at ~4min; m is sent right after, carrying SN 2.
    w.sim.run_until(minutes(4) + seconds(10));
    EXPECT_EQ(w.runtime->store(ClusterId{0}).last().sn, 2u);
    w.send(NodeId{0}, NodeId{2});  // m
    // Cluster 1 keeps committing 90s CLCs, all contaminated by m now.
    // Fail cluster 0 before its 8-minute commit: it restores SN 2, so m is
    // undone and cluster 1 must abandon every contaminated checkpoint.
    w.sim.run_until(minutes(7) + seconds(50));
    w.fed.inject_failure(NodeId{1});
    // Settle long enough for the cascade but shorter than cluster 1's 90 s
    // timer, so no fresh post-recovery CLC masks the restored one.
    w.settle(seconds(30));
    EXPECT_TRUE(w.fed.ledger().validate(false).empty());
    EXPECT_GE(w.registry.get("rollback.count.c1"), 1u);
    // Where did cluster 1 land, in wall-clock terms?
    return w.runtime->store(ClusterId{1}).last().commit_time;
  };
  const SimTime hc3i_restored_at = run(false);
  const SimTime indep_restored_at = run(true);
  // HC3I lands on the forced CLC taken right before m's delivery (~4min);
  // the independent baseline dominoes past it to the last checkpoint that
  // provably precedes the contamination (~3min) — strictly more lost work.
  EXPECT_GT(hc3i_restored_at, indep_restored_at);
  EXPECT_GE(hc3i_restored_at, minutes(4));
  EXPECT_LE(indep_restored_at, minutes(3) + seconds(10));
}

TEST(Independent, GcIsRefused) {
  auto opts = base_opts(driver::ProtocolKind::kIndependent);
  opts.spec.timers.gc_period = minutes(20);  // the driver must override this
  const auto result = driver::run_simulation(opts);
  EXPECT_EQ(result.counter("gc.rounds"), 0u);
}

TEST(AllProtocols, NamesAreStable) {
  EXPECT_EQ(driver::to_string(driver::ProtocolKind::kHc3i), "HC3I");
  EXPECT_EQ(driver::to_string(driver::ProtocolKind::kIndependent),
            "independent");
  EXPECT_EQ(driver::to_string(driver::ProtocolKind::kCoordinatedGlobal),
            "coordinated-global");
  EXPECT_EQ(driver::to_string(driver::ProtocolKind::kPessimisticLog),
            "pessimistic-log");
  EXPECT_EQ(driver::to_string(driver::ProtocolKind::kHierarchicalCoordinated),
            "hierarchical-coordinated");
  // parse_protocol accepts every printed name (HC3I in lower case).
  for (const driver::ProtocolKind kind :
       {driver::ProtocolKind::kHc3i, driver::ProtocolKind::kIndependent,
        driver::ProtocolKind::kCoordinatedGlobal,
        driver::ProtocolKind::kPessimisticLog,
        driver::ProtocolKind::kHierarchicalCoordinated}) {
    const std::string name = kind == driver::ProtocolKind::kHc3i
                                 ? "hc3i"
                                 : driver::to_string(kind);
    EXPECT_EQ(driver::parse_protocol(name), kind) << name;
  }
  EXPECT_EQ(driver::parse_protocol("HC3I"), std::nullopt);
  EXPECT_EQ(driver::parse_protocol("global"), std::nullopt);
}

}  // namespace
}  // namespace hc3i::testing
