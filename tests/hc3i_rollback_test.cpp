// Rollback scenarios for HC3I (paper §3.4): single-cluster rollback, alert
// cascades, logged-message replay, stale-message filtering, failed-node log
// recovery — each checked against the consistency ledger and, for cascades,
// against the pure recovery-line oracle.

#include <gtest/gtest.h>

#include "proto/recovery_line.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace hc3i::testing {
namespace {

/// Collect the (sn, ddv) metadata of every cluster's store.
std::vector<std::vector<proto::ClcMeta>> metas_of(MiniWorld& w) {
  std::vector<std::vector<proto::ClcMeta>> out(w.runtime->cluster_count());
  for (std::size_t c = 0; c < out.size(); ++c) {
    for (const auto& rec :
         w.runtime->store(ClusterId{static_cast<std::uint32_t>(c)}).records()) {
      out[c].push_back(proto::ClcMeta{rec.sn, rec.ddv});
    }
  }
  return out;
}

TEST(Rollback, FaultRestoresLastClcAndResumes) {
  MiniWorld w(tiny_spec(2, 3), 1);
  w.settle();
  // Progress the apps a bit past the initial CLC.
  for (auto& app : w.apps) app->work();
  w.fed.inject_failure(NodeId{1});
  w.settle();
  EXPECT_EQ(w.registry.get("rollback.count.c0"), 1u);
  EXPECT_EQ(w.registry.get("fault.recovery_complete"), 1u);
  // Every node of cluster 0 restored to the initial snapshot (progress 0).
  for (std::uint32_t n = 0; n < 3; ++n) {
    EXPECT_EQ(w.apps[n]->progress, 0u) << "node " << n;
    EXPECT_EQ(w.apps[n]->restore_count, 1);
  }
  // Cluster 1 untouched.
  for (std::uint32_t n = 3; n < 6; ++n) {
    EXPECT_EQ(w.apps[n]->restore_count, 0);
  }
  // Incarnation bumped cluster-wide; agreement restored.
  for (const auto* a : w.runtime->cluster_agents(ClusterId{0})) {
    EXPECT_EQ(a->incarnation(), 1u);
    EXPECT_EQ(a->sn(), 1u);
  }
  EXPECT_TRUE(w.fed.ledger().validate(false).empty());
}

TEST(Rollback, ReceiverRollsBackWhenSenderFails) {
  // m1 forced a CLC in cluster 1 stamped DDV[0] = 1.  Cluster 0 then fails
  // without having committed since, so its restored SN (1) makes cluster 1
  // roll back to that forced CLC (the paper's CLC1/CLC2 consistency case).
  MiniWorld w(tiny_spec(2, 3), 1);
  w.settle();
  const std::uint64_t seq = w.send(NodeId{0}, NodeId{3});
  w.settle();
  ASSERT_TRUE(w.delivered(NodeId{3}, seq));
  const auto before = metas_of(w);
  const auto oracle = proto::compute_recovery_line(before, ClusterId{0});
  w.fed.inject_failure(NodeId{0});
  w.settle(minutes(2));
  // The distributed cascade must land exactly where the oracle says.
  EXPECT_TRUE(oracle.rolled_back[1]);
  EXPECT_EQ(w.runtime->store(ClusterId{1}).last().sn, oracle.restored[1]);
  EXPECT_EQ(w.registry.get("rollback.cascade.c1"), 1u);
  // The undone delivery is replayed from the sender's log: cluster 0
  // re-sends m1 (its send was *before* its restored checkpoint? No — the
  // send happened in epoch 1, which is exactly the restored SN, so the
  // send is undone and the *application* re-executes instead).
  EXPECT_TRUE(w.fed.ledger().validate(false).empty());
}

TEST(Rollback, SenderUnaffectedWhenReceiverFails) {
  // Paper §3.3: "If the sender of a message does not rollback while the
  // receiver does, the sender's cluster does not need to be forced to
  // rollback" — the logged message is simply re-sent.
  MiniWorld w(tiny_spec(2, 3), 1);
  w.settle();
  const std::uint64_t seq = w.send(NodeId{0}, NodeId{3});
  w.settle();
  ASSERT_TRUE(w.delivered(NodeId{3}, seq));
  w.fed.inject_failure(NodeId{4});  // receiver cluster fails
  w.settle(minutes(2));
  EXPECT_EQ(w.registry.get("rollback.count.c1"), 1u);
  EXPECT_EQ(w.registry.get("rollback.count.c0"), 0u);  // sender kept running
  EXPECT_EQ(w.apps[0]->restore_count, 0);
  // The delivery was undone by the rollback and replayed from the log.
  EXPECT_GE(w.registry.get("log.resent_msgs"), 1u);
  EXPECT_EQ(w.apps[3]->delivered_count, 1u);  // exactly once in live state
  EXPECT_TRUE(w.fed.ledger().validate(false).empty());
}

TEST(Rollback, UnackedLoggedMessageResentAfterReceiverFault) {
  // The message is still in flight (not yet delivered) when the receiver
  // cluster rolls back: the log entry is unacknowledged and must re-send;
  // the receiver de-duplicates if both copies eventually arrive.
  MiniWorld w(tiny_spec(2, 3), 1);
  w.settle();
  w.send(NodeId{0}, NodeId{3});
  // Fail immediately: the inter-cluster message (150us) is still in flight.
  w.fed.inject_failure(NodeId{3});
  w.settle(minutes(2));
  EXPECT_TRUE(w.fed.ledger().validate(false).empty());
  EXPECT_EQ(w.apps[3]->delivered_count, 1u);
}

TEST(Rollback, CascadeMatchesOracleOnThreeClusters) {
  // Build the paper-§4-like dependency chain across three clusters, then
  // fail the middle one and compare the distributed result with the pure
  // recovery-line computation.
  config::RunSpec spec = tiny_spec(3, 2);
  spec.timers.clusters[0].clc_period = minutes(3);
  spec.timers.clusters[1].clc_period = minutes(4);
  MiniWorld w(spec, 1);
  w.settle();
  w.send(NodeId{0}, NodeId{2});  // C0 -> C1
  w.settle();
  w.send(NodeId{2}, NodeId{4});  // C1 -> C2
  w.settle();
  w.sim.run_until(minutes(5));   // let timers advance some SNs
  w.send(NodeId{2}, NodeId{5});  // C1 -> C2 with a fresher SN
  w.settle();
  w.send(NodeId{4}, NodeId{1});  // C2 -> C0
  w.settle();

  const auto before = metas_of(w);
  const auto oracle = proto::compute_recovery_line(before, ClusterId{1});
  w.fed.inject_failure(NodeId{2});
  w.settle(minutes(2));
  for (std::uint32_t c = 0; c < 3; ++c) {
    EXPECT_EQ(w.runtime->store(ClusterId{c}).last().sn, oracle.restored[c])
        << "cluster " << c;
    if (oracle.rolled_back[c] && c != 1) {
      EXPECT_GE(w.registry.get("rollback.count.c" + std::to_string(c)), 1u);
    }
  }
  EXPECT_TRUE(w.fed.ledger().validate(false).empty());
}

TEST(Rollback, FailedNodeRecoversItsLogFromTheClc) {
  // The failed node's volatile log is lost; it restores the checkpointed
  // copy so later alerts can still replay its sends (docs/paper_map.md).
  MiniWorld w(tiny_spec(2, 3), 1);
  w.settle();
  const std::uint64_t seq = w.send(NodeId{0}, NodeId{3});
  w.settle();
  ASSERT_TRUE(w.delivered(NodeId{3}, seq));
  ASSERT_EQ(w.agent(NodeId{0}).log_size(), 1u);
  // Force a CLC in cluster 0 so the log copy lands in a checkpoint whose
  // SN exceeds the send epoch (otherwise truncate_from drops the entry).
  w.send(NodeId{3}, NodeId{0});
  w.settle();
  ASSERT_GE(w.runtime->store(ClusterId{0}).last().sn, 2u);
  // Now node 0 itself fails; the cluster rolls back to the CLC above.
  w.fed.inject_failure(NodeId{0});
  w.settle(minutes(2));
  EXPECT_EQ(w.agent(NodeId{0}).log_size(), 1u)
      << "checkpointed log copy not restored";
  EXPECT_TRUE(w.fed.ledger().validate(false).empty());
}

TEST(Rollback, SurvivorTruncatesUndoneSendsFromLog) {
  MiniWorld w(tiny_spec(2, 3), 1);
  w.settle();
  w.send(NodeId{1}, NodeId{3});  // logged in epoch 1 at node 1
  w.settle();
  ASSERT_EQ(w.agent(NodeId{1}).log_size(), 1u);
  // Cluster 0 rolls back to SN 1 (initial CLC): the epoch-1 send is undone
  // and must leave the log (the application re-executes it).
  w.fed.inject_failure(NodeId{2});
  w.settle(minutes(2));
  EXPECT_EQ(w.agent(NodeId{1}).log_size(), 0u);
  EXPECT_TRUE(w.fed.ledger().validate(false).empty());
}

TEST(Rollback, StaleInFlightMessageDropped) {
  // A message sent in an undone epoch but still in flight when the sender
  // rolls back must be discarded by the receiver (docs/paper_map.md,
  // "Incarnations") — its application-level re-execution supersedes it.
  config::RunSpec spec = tiny_spec(2, 3);
  // Slow inter-cluster link so the message is still in flight at rollback.
  spec.topology.inter[0][1].bytes_per_sec = 1000.0;
  spec.topology.inter[1][0].bytes_per_sec = 1000.0;
  MiniWorld w(spec, 1);
  w.settle();
  w.send(NodeId{0}, NodeId{3});  // ~1s serialisation: in flight
  w.fed.inject_failure(NodeId{1});
  w.settle(minutes(2));
  EXPECT_GE(w.registry.get("cic.stale_dropped"), 1u);
  EXPECT_TRUE(w.fed.ledger().validate(false).empty());
}

TEST(Rollback, FailureDuringRoundAbortsIt) {
  // A node dies mid-2PC; the rollback must clear the round so the cluster
  // can checkpoint again afterwards.
  config::RunSpec spec = tiny_spec(2, 3);
  spec.application.state_bytes = 50 * 1024 * 1024;  // seconds-long round
  spec.timers.clusters[0].clc_period = minutes(5);
  MiniWorld w(spec, 1);
  w.settle(seconds(1));
  ASSERT_TRUE(w.agent(NodeId{0}).in_round());
  // The initial round is still open: fault now. (The initial CLC has not
  // committed yet, so the store is empty — the failure detector fires
  // after the commit in practice; make sure a *later* round aborts.)
  w.settle(seconds(30));  // initial CLC committed
  w.sim.run_until(minutes(5));
  while (!w.agent(NodeId{0}).in_round() && w.sim.now() < minutes(9)) {
    ASSERT_TRUE(w.sim.step());
  }
  ASSERT_TRUE(w.agent(NodeId{0}).in_round());  // timer round in flight
  w.fed.inject_failure(NodeId{2});
  w.settle(minutes(2));
  EXPECT_FALSE(w.agent(NodeId{0}).in_round());
  // The cluster can still commit CLCs after the aborted round.
  w.sim.run_until(w.sim.now() + minutes(6));
  EXPECT_GE(w.runtime->store(ClusterId{0}).last().sn, 2u);
  EXPECT_TRUE(w.fed.ledger().validate(false).empty());
}

TEST(Rollback, FailureBetweenPhase1AcksLeavesNoStaleDdv) {
  // Regression for the coordinator round-scratch lifecycle: a failure that
  // aborts a 2PC round between its phase-1 acks (incarnation bump
  // mid-round) must not let the aborted round's DDV views, absorbed
  // demands or tentative parts leak into a later round's committed DDV
  // (apply_cluster_rollback drops tentative_/pending_*, and the commit
  // merges the nodes' DDVs as they stand at commit time).
  config::RunSpec spec = tiny_spec(2, 3);
  spec.application.state_bytes = 50 * 1024 * 1024;  // seconds-long phase 1
  MiniWorld w(spec, 3);
  w.settle(minutes(1));  // initial CLCs committed
  // Build a C0 <-> C1 dependency chain so C0's DDV carries a real entry
  // for C1 before the aborted round.
  w.send(NodeId{0}, NodeId{3});  // C0 SN 1 fresh at C1: forces a CLC there
  w.settle(minutes(1));
  w.send(NodeId{3}, NodeId{0});  // C1 SN 2 fresh at C0: forces, raises ddv
  w.settle(minutes(1));
  ASSERT_GE(w.agent(NodeId{0}).ddv().at(ClusterId{1}), 2u);
  w.send(NodeId{0}, NodeId{4});  // another fresh C0 SN: C1 commits again
  w.settle(minutes(1));
  const SeqNum c1_before = w.agent(NodeId{3}).sn();

  // A fresher C1 SN demands a forced CLC in C0; fail a C0 member while
  // that round is collecting phase-1 acks.  The demanded raise (to C1's
  // SN 4) is exactly the kind of entry that must die with the round.
  w.send(NodeId{4}, NodeId{1});
  while (!w.agent(NodeId{0}).in_round() && w.sim.now() < minutes(15)) {
    ASSERT_TRUE(w.sim.step());
  }
  ASSERT_TRUE(w.agent(NodeId{0}).in_round());
  w.fed.inject_failure(NodeId{2});
  w.settle(minutes(3));

  // C0 restores SN 2; C1's DDV[0] = 2 >= 2, so C1 cascades onto its most
  // recent CLC — which undoes the triggering send itself (its epoch is
  // gone; the application re-executes it in real runs).
  EXPECT_EQ(w.registry.get("rollback.count.c0"), 1u);
  EXPECT_EQ(w.registry.get("rollback.cascade.c1"), 1u);
  EXPECT_FALSE(w.agent(NodeId{0}).in_round());
  // No stale round scratch: every committed C0 record's entry for C1 stays
  // within what C1 really committed, and the cluster agrees on one DDV.
  for (const auto& rec : w.runtime->store(ClusterId{0}).records()) {
    EXPECT_LE(rec.ddv.at(ClusterId{1}), w.agent(NodeId{3}).sn())
        << "committed DDV depends on a C1 SN that never stabilised";
  }
  const auto* first = w.runtime->cluster_agents(ClusterId{0}).front();
  for (const auto* a : w.runtime->cluster_agents(ClusterId{0})) {
    EXPECT_TRUE(a->ddv() == first->ddv());
    EXPECT_EQ(a->sn(), first->sn());
  }
  EXPECT_EQ(w.agent(NodeId{3}).sn(), c1_before);

  // The cluster must checkpoint cleanly after the aborted round: a fresh
  // C1 send (SN 3, new incarnation) forces a CLC in C0 whose committed DDV
  // carries exactly the re-observed SN — nothing from the dead round.
  const std::uint64_t fresh = w.send(NodeId{3}, NodeId{0});
  w.settle(minutes(2));
  EXPECT_TRUE(w.delivered(NodeId{0}, fresh));
  EXPECT_GE(w.agent(NodeId{0}).sn(), 3u);
  EXPECT_EQ(w.agent(NodeId{0}).ddv().at(ClusterId{1}),
            w.agent(NodeId{3}).sn());
  for (const auto& rec : w.runtime->store(ClusterId{0}).records()) {
    EXPECT_LE(rec.ddv.at(ClusterId{1}), w.agent(NodeId{3}).sn());
  }
  EXPECT_TRUE(w.fed.ledger().validate(false).empty());
}

TEST(Rollback, CoordinatorFailureHandledBySurvivor) {
  // The failure detector notifies the first *up* node; when node 0 (the
  // 2PC coordinator) dies, node 1 runs the rollback.
  MiniWorld w(tiny_spec(2, 3), 1);
  w.settle();
  for (auto& app : w.apps) app->work();
  w.fed.inject_failure(NodeId{0});
  w.settle(minutes(2));
  EXPECT_EQ(w.registry.get("rollback.count.c0"), 1u);
  EXPECT_EQ(w.apps[0]->restore_count, 1);
  EXPECT_TRUE(w.fed.ledger().validate(false).empty());
  // And the cluster still checkpoints (coordinator node came back).
  w.send(NodeId{3}, NodeId{0});
  w.settle();
  EXPECT_GE(w.registry.get("clc.forced.c0"), 1u);
}

TEST(Rollback, LostWorkIsObserved) {
  MiniWorld w(tiny_spec(2, 3), 1);
  w.settle();
  for (std::uint32_t n = 0; n < 3; ++n) {
    w.apps[n]->work();  // 1 virtual second each
  }
  w.fed.inject_failure(NodeId{1});
  w.settle(minutes(2));
  const auto& lost = w.registry.summary("rollback.lost_work_s");
  EXPECT_EQ(lost.count(), 3u);
  EXPECT_DOUBLE_EQ(lost.sum(), 3.0);
}

TEST(Rollback, RepeatedFaultsStayConsistent) {
  MiniWorld w(tiny_spec(2, 3), 7);
  w.settle();
  for (int round = 0; round < 5; ++round) {
    const std::uint64_t s = w.send(NodeId{0}, NodeId{3});
    w.settle();
    EXPECT_TRUE(w.delivered(NodeId{3}, s));
    w.fed.inject_failure(NodeId{static_cast<std::uint32_t>(round % 6)});
    w.settle(minutes(2));
    EXPECT_TRUE(w.fed.ledger().validate(false).empty()) << "round " << round;
  }
  EXPECT_EQ(w.registry.get("fault.injected"), 5u);
}

TEST(Rollback, ClusterLogTotalsMatchAgentLogs) {
  // The runtime's per-cluster sender-log totals follow every log change
  // (send, ack, resend, truncation, restore of a lost log, GC prune); after
  // each fault of a three-cluster run they must equal the sums over the
  // cluster's agents.
  config::RunSpec spec = tiny_spec(3, 3);
  for (auto& c : spec.timers.clusters) c.clc_period = minutes(2);
  spec.timers.gc_period = minutes(3);
  MiniWorld w(spec, 3);
  RngStream rng(3, 0);
  const auto random_node = [&] {
    return NodeId{static_cast<std::uint32_t>(rng.next_below(9))};
  };
  for (int round = 0; round < 8; ++round) {
    for (int k = 0; k < 20; ++k) {
      const NodeId src = random_node(), dst = random_node();
      if (src != dst) w.send(src, dst);
    }
    w.settle(seconds(1));
    w.fed.inject_failure(random_node());
    w.settle(minutes(2));
    for (std::uint32_t c = 0; c < 3; ++c) {
      std::size_t entries = 0, unacked = 0;
      for (const core::Hc3iAgent* a :
           w.runtime->cluster_agents(ClusterId{c})) {
        entries += a->log_size();
        unacked += a->msg_log().unacked_count();
      }
      const proto::LogTally& tally = w.runtime->log_tally(ClusterId{c});
      EXPECT_EQ(tally.entries, entries) << "round " << round << " c" << c;
      EXPECT_EQ(tally.unacked, unacked) << "round " << round << " c" << c;
    }
  }
  EXPECT_EQ(w.registry.get("fault.injected"), 8u);
  EXPECT_GT(w.registry.get("log.resent_msgs"), 0u);
  EXPECT_GT(w.registry.get("gc.log_entries_removed"), 0u);
  EXPECT_TRUE(w.fed.ledger().validate(false).empty());
}

}  // namespace
}  // namespace hc3i::testing
