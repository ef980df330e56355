// Unit tests for src/proto: DDV, sender log, checkpoint store, the §3.4
// rollback rule, ledger.

#include <gtest/gtest.h>

#include <span>
#include <utility>

#include "proto/clc_store.hpp"
#include "proto/ddv.hpp"
#include "proto/dedup_set.hpp"
#include "proto/ledger.hpp"
#include "proto/msg_log.hpp"
#include "proto/recovery_line.hpp"
#include "util/rng.hpp"

namespace hc3i::proto {
namespace {

// ---------------------------------------------------------------------------
// Ddv
// ---------------------------------------------------------------------------

TEST(Ddv, ConstructionSetsOwnEntry) {
  const Ddv d(3, ClusterId{1}, 7);
  EXPECT_EQ(d.at(ClusterId{0}), 0u);
  EXPECT_EQ(d.at(ClusterId{1}), 7u);
  EXPECT_EQ(d.size(), 3u);
}

TEST(Ddv, RaiseOnlyGoesUp) {
  Ddv d(2, ClusterId{0}, 1);
  EXPECT_TRUE(d.raise(ClusterId{1}, 5));
  EXPECT_FALSE(d.raise(ClusterId{1}, 3));
  EXPECT_EQ(d.at(ClusterId{1}), 5u);
}

TEST(Ddv, MergeMaxEntryWise) {
  Ddv a(3, ClusterId{0}, 2);
  Ddv b(3, ClusterId{1}, 9);
  a.raise(ClusterId{2}, 4);
  b.raise(ClusterId{2}, 1);
  a.merge_max(b);
  EXPECT_EQ(a.at(ClusterId{0}), 2u);
  EXPECT_EQ(a.at(ClusterId{1}), 9u);
  EXPECT_EQ(a.at(ClusterId{2}), 4u);
}

TEST(Ddv, ToStringMatchesPaperStyle) {
  Ddv d(3, ClusterId{0}, 3);
  d.raise(ClusterId{2}, 4);
  EXPECT_EQ(d.to_string(), "(3, 0, 4)");
}

TEST(Ddv, OutOfRangeThrows) {
  Ddv d(2, ClusterId{0}, 1);
  EXPECT_THROW(d.at(ClusterId{5}), CheckFailure);
  EXPECT_THROW(d.raise(ClusterId{5}, 1), CheckFailure);
}

// ---------------------------------------------------------------------------
// MsgLog
// ---------------------------------------------------------------------------

net::Envelope inter_env(std::uint64_t msg_id, SeqNum piggy_sn,
                        std::uint32_t dst_cluster = 1,
                        std::uint64_t app_seq = 0) {
  net::Envelope env;
  env.id = MsgId{msg_id};
  env.src = NodeId{0};
  env.dst = NodeId{100};
  env.src_cluster = ClusterId{0};
  env.dst_cluster = ClusterId{dst_cluster};
  env.payload_bytes = 100;
  env.piggy.sn = piggy_sn;
  env.app_seq = app_seq ? app_seq : msg_id;
  return env;
}

TEST(MsgLog, RejectsIntraCluster) {
  MsgLog log;
  net::Envelope env = inter_env(1, 1);
  env.dst_cluster = env.src_cluster;
  EXPECT_THROW(log.add(env), CheckFailure);
}

TEST(MsgLog, UnackedEntriesAreResent) {
  MsgLog log;
  log.add(inter_env(1, 1));
  const auto resends = log.take_resends(ClusterId{1}, 1, 1);
  EXPECT_EQ(resends.size(), 1u);
  EXPECT_EQ(log.size(), 0u);  // taken entries leave the log
}

TEST(MsgLog, AckedBeforeRestorePointIsStable) {
  // Delivery in epoch 2, receiver restored to SN 3 => the delivery is part
  // of the restored state; no resend.
  MsgLog log;
  log.add(inter_env(1, 1));
  log.record_ack(MsgId{1}, /*ack_sn=*/2, /*ack_inc=*/0);
  const auto resends = log.take_resends(ClusterId{1}, /*restored_sn=*/3,
                                        /*new_inc=*/1);
  EXPECT_TRUE(resends.empty());
  EXPECT_EQ(log.size(), 1u);
}

TEST(MsgLog, AckedAtOrAfterRestorePointIsResent) {
  // Paper §3.4: "Logged messages ... acknowledged with a SN greater than
  // the alert one (or not acknowledged at all) will then be resent";
  // under our SN convention the boundary epoch is lost too
  // (proto::undone_by_rollback; docs/paper_map.md, row "Rollback").
  MsgLog log;
  log.add(inter_env(1, 1));
  log.add(inter_env(2, 1));
  log.record_ack(MsgId{1}, /*ack_sn=*/3, /*ack_inc=*/0);
  log.record_ack(MsgId{2}, /*ack_sn=*/5, /*ack_inc=*/0);
  const auto resends = log.take_resends(ClusterId{1}, /*restored_sn=*/3,
                                        /*new_inc=*/1);
  EXPECT_EQ(resends.size(), 2u);
}

TEST(MsgLog, AckFromNewIncarnationIsStable) {
  // The receiver already re-delivered this message after its rollback.
  MsgLog log;
  log.add(inter_env(1, 1));
  log.record_ack(MsgId{1}, /*ack_sn=*/7, /*ack_inc=*/2);
  const auto resends =
      log.take_resends(ClusterId{1}, /*restored_sn=*/3, /*new_inc=*/2);
  EXPECT_TRUE(resends.empty());
}

TEST(MsgLog, ResendsOnlyTargetCluster) {
  MsgLog log;
  log.add(inter_env(1, 1, /*dst_cluster=*/1));
  log.add(inter_env(2, 1, /*dst_cluster=*/2));
  const auto resends = log.take_resends(ClusterId{2}, 1, 1);
  ASSERT_EQ(resends.size(), 1u);
  EXPECT_EQ(resends[0].dst_cluster, ClusterId{2});
  EXPECT_EQ(log.size(), 1u);
}

TEST(MsgLog, TruncateDropsUndoneSends) {
  // Our own cluster rolled back to SN 3: sends from epochs >= 3 are undone.
  MsgLog log;
  log.add(inter_env(1, 2));
  log.add(inter_env(2, 3));
  log.add(inter_env(3, 5));
  EXPECT_EQ(log.truncate_from(3), 2u);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_EQ(log.entries()[0].env.piggy.sn, 2u);
}

TEST(MsgLog, PruneKeepsUnackedAndRecent) {
  // GC rule (paper §3.5): remove entries acknowledged below the receiver
  // cluster's smallest possible rollback SN.
  MsgLog log;
  log.add(inter_env(1, 1));  // will be acked at 2 (stable if min_sn > 2)
  log.add(inter_env(2, 1));  // acked at 9 (recent)
  log.add(inter_env(3, 1));  // never acked
  log.record_ack(MsgId{1}, 2, 0);
  log.record_ack(MsgId{2}, 9, 0);
  EXPECT_EQ(log.prune(ClusterId{1}, /*min_sn=*/5), 1u);
  EXPECT_EQ(log.size(), 2u);
}

TEST(MsgLog, AckForUnknownIdIgnored) {
  MsgLog log;
  log.record_ack(MsgId{404}, 1, 0);  // no crash, no effect
  EXPECT_EQ(log.size(), 0u);
}

TEST(MsgLog, BytesAccountsPayloadAndMetadata) {
  MsgLog log;
  log.add(inter_env(1, 1));
  EXPECT_GT(log.bytes(), 100u);
}

TEST(MsgLog, CaptureStaysFrozenAcrossMutationAndRestore) {
  MsgLog log;
  log.add(inter_env(1, 1));
  LogImage a = log.capture();
  const LogImage copy = a;
  EXPECT_TRUE(copy.shares_storage_with(a));  // a copy shares the block
  const LogImage moved = std::move(a);
  EXPECT_TRUE(moved.shares_storage_with(copy));
  EXPECT_EQ(a.size(), 0u);  // a move empties its source
  EXPECT_FALSE(a.shares_storage_with(copy));

  log.record_ack(MsgId{1}, 3, 0);  // mutation after capture: detaches
  log.add(inter_env(2, 1));
  EXPECT_FALSE(log.capture().shares_storage_with(copy));
  ASSERT_EQ(copy.size(), 1u);
  EXPECT_FALSE(copy.entries()[0].acked);  // the image stays frozen
  EXPECT_EQ(log.unacked_count(), 1u);

  // A log restored from the image adopts its block and detaches on write.
  MsgLog restored;
  restored.restore(copy);
  EXPECT_TRUE(restored.capture().shares_storage_with(copy));
  restored.record_ack(MsgId{1}, 4, 0);
  EXPECT_FALSE(restored.capture().shares_storage_with(copy));
  EXPECT_TRUE(restored.entries()[0].acked);
  EXPECT_FALSE(copy.entries()[0].acked);
}  // every holder released here: ASan reports a block the count leaked

// ---------------------------------------------------------------------------
// ClcStore
// ---------------------------------------------------------------------------

ClcRecord record(SeqNum sn, std::vector<SeqNum> ddv_entries,
                 std::uint32_t nodes = 2) {
  ClcRecord rec;
  rec.sn = sn;
  rec.ddv = Ddv(ddv_entries.size(), ClusterId{0}, 0);
  for (std::size_t i = 0; i < ddv_entries.size(); ++i) {
    rec.ddv.set(ClusterId{static_cast<std::uint32_t>(i)}, ddv_entries[i]);
  }
  rec.parts.resize(nodes);
  for (auto& p : rec.parts) p.app.state_bytes = 1000;
  return rec;
}

TEST(ClcStore, CommitEnforcesInvariants) {
  ClcStore store(ClusterId{0}, 2, 1);
  store.commit(record(1, {1, 0}));
  EXPECT_THROW(store.commit(record(1, {1, 0})), CheckFailure);  // not increasing
  EXPECT_THROW(store.commit(record(5, {4, 0})), CheckFailure);  // ddv[self] != sn
  ClcRecord bad = record(2, {2, 0}, /*nodes=*/3);
  EXPECT_THROW(store.commit(std::move(bad)), CheckFailure);  // wrong part count
}

TEST(RollbackTarget, OldestRetainedRecordAtOrAboveTheAlertedSn) {
  ClcStore store(ClusterId{0}, 2, 1);
  store.commit(record(1, {1, 0}));
  store.commit(record(2, {2, 3}));
  store.commit(record(3, {3, 3}));
  store.commit(record(4, {4, 6}));
  const Ddv current = store.last().ddv;  // entry for C1: 6
  // {alerted SN, target SN (0: no rollback)}
  const std::pair<SeqNum, SeqNum> rows[] = {
      {3, 2},  // the *oldest* qualifying CLC (paper §3.4)
      {6, 4},
      {0, 0},  // an alert naming SN 0: a restart from the beginning
      {7, 0},  // the DDV entry is below the alerted SN
  };
  for (const auto& [alerted, want] : rows) {
    const ClcRecord* got = rollback_target(std::span(store.records()),
                                           current, ClusterId{1}, alerted);
    EXPECT_EQ(got != nullptr ? got->sn : 0, want) << "alerted SN " << alerted;
  }
  // The dependency stands (6 >= 3), but an over-eager GC pruned every
  // record that carries it.
  store.prune_before(5);
  EXPECT_THROW(rollback_target(std::span(store.records()), current,
                               ClusterId{1}, 3),
               CheckFailure);
}

TEST(ClcStore, TruncateAfterRollback) {
  ClcStore store(ClusterId{0}, 2, 1);
  for (SeqNum sn = 1; sn <= 5; ++sn) store.commit(record(sn, {sn, 0}));
  EXPECT_EQ(store.truncate_after(3), 2u);
  EXPECT_EQ(store.last().sn, 3u);
}

TEST(ClcStore, PruneBeforeGc) {
  ClcStore store(ClusterId{0}, 2, 1);
  for (SeqNum sn = 1; sn <= 5; ++sn) store.commit(record(sn, {sn, 0}));
  EXPECT_EQ(store.prune_before(4), 3u);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.records().front().sn, 4u);
}

TEST(ClcStore, StorageAccountsReplication) {
  // Paper §5.4 arithmetic: with one neighbour replica each node stores
  // 2 local states per retained CLC (63 CLCs -> 126 local states).
  ClcStore store(ClusterId{0}, 2, 1);
  store.commit(record(1, {1, 0}));
  EXPECT_EQ(store.local_states_per_node(), 2u);
  const std::uint64_t one = store.storage_bytes();
  EXPECT_EQ(one, 2u * 2u * 1000u);  // 2 nodes x (1+1 copies) x 1000 B
  store.commit(record(2, {2, 0}));
  EXPECT_EQ(store.local_states_per_node(), 4u);
  EXPECT_EQ(store.storage_bytes(), 2 * one);
}

TEST(ClcStore, FindBySn) {
  ClcStore store(ClusterId{0}, 2, 1);
  store.commit(record(1, {1, 0}));
  store.commit(record(4, {4, 0}));
  EXPECT_NE(store.find(4), nullptr);
  EXPECT_EQ(store.find(2), nullptr);
}

TEST(ClcStore, ReplicationBounds) {
  EXPECT_THROW(ClcStore(ClusterId{0}, 2, 2), CheckFailure);
  ClcStore solo(ClusterId{0}, 1, 0);
  EXPECT_EQ(solo.replication(), 0u);
}

/// Reference count: the from-scratch walk over every retained record, node
/// part and log entry that ClcStore::storage_bytes() keeps up to date.
std::uint64_t storage_bytes_from_scratch(const ClcStore& store) {
  std::uint64_t total = 0;
  for (const auto& r : store.records()) {
    std::uint64_t rec_bytes = 0;
    for (const auto& p : r.parts) {
      rec_bytes += p.app.incremental ? p.app.delta_bytes : p.app.state_bytes;
      rec_bytes += p.dedup.size() * sizeof(std::uint64_t);
      for (const auto& e : p.log.entries()) rec_bytes += e.env.wire_bytes();
    }
    for (const auto& ch : r.channel) rec_bytes += ch.wire_bytes();
    total += rec_bytes * (1 + store.replication());
  }
  return total;
}

TEST(ClcStore, StorageBytesMatchesFromScratchCount) {
  // Random commit / truncate_after / prune_before sequences; after every
  // operation the running total must equal the full recount.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    RngStream rng(seed, 0);
    const auto nodes = static_cast<std::uint32_t>(1 + rng.next_below(4));
    ClcStore store(ClusterId{0}, nodes,
                   static_cast<std::uint32_t>(rng.next_below(nodes)));
    // Live per-node logs and dedup sets, mutated between commits, so the
    // records mix shared and fresh copy-on-write images.
    std::vector<MsgLog> logs(nodes);
    std::vector<DedupSet> dedups(nodes);
    SeqNum sn = 0;
    std::uint64_t next_id = 1;
    for (int op = 0; op < 60; ++op) {
      const std::uint64_t pick = rng.next_below(10);
      if (pick < 6 || store.empty()) {
        sn += static_cast<SeqNum>(1 + rng.next_below(3));
        ClcRecord rec = record(sn, {sn}, nodes);
        for (std::uint32_t i = 0; i < nodes; ++i) {
          for (std::uint64_t k = rng.next_below(3); k > 0; --k) {
            net::Envelope env = inter_env(next_id++, sn);
            env.payload_bytes = rng.next_below(5000);
            logs[i].add(env);
          }
          if (rng.bernoulli(0.3)) dedups[i].insert(rng.next_below(1000));
          NodePart& part = rec.parts[i];
          part.app.incremental = rng.bernoulli(0.5);
          part.app.delta_bytes = rng.next_below(1000);
          part.log = logs[i].capture();
          part.dedup = dedups[i].capture();
        }
        for (std::uint64_t k = rng.next_below(3); k > 0; --k) {
          net::Envelope env = inter_env(next_id++, sn);
          env.payload_bytes = rng.next_below(5000);
          rec.channel.push_back(env);
        }
        store.commit(std::move(rec));
      } else if (pick < 8) {
        store.truncate_after(
            static_cast<SeqNum>(rng.next_below(std::uint64_t{sn} + 1)));
      } else {
        store.prune_before(
            static_cast<SeqNum>(rng.next_below(std::uint64_t{sn} + 2)));
      }
      ASSERT_EQ(store.storage_bytes(), storage_bytes_from_scratch(store))
          << "seed " << seed << " op " << op;
    }
  }
}

// ---------------------------------------------------------------------------
// ConsistencyLedger
// ---------------------------------------------------------------------------

TEST(Ledger, CleanRunValidates) {
  ConsistencyLedger ledger;
  ledger.record_send(1, NodeId{0}, ClusterId{0}, seconds(1));
  ledger.record_delivery(1, NodeId{5}, ClusterId{1}, seconds(2));
  EXPECT_TRUE(ledger.validate(false).empty());
}

TEST(Ledger, DetectsLostMessage) {
  ConsistencyLedger ledger;
  ledger.record_send(1, NodeId{0}, ClusterId{0}, seconds(1));
  const auto v = ledger.validate(false);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("lost"), std::string::npos);
  EXPECT_TRUE(ledger.validate(true).empty());  // tolerated while in flight
}

TEST(Ledger, DetectsGhost) {
  ConsistencyLedger ledger;
  const std::uint64_t mark = ledger.mark();
  ledger.record_send(1, NodeId{0}, ClusterId{0}, seconds(1));
  ledger.record_delivery(1, NodeId{5}, ClusterId{1}, seconds(2));
  // Sender cluster rolls back past the send; receiver does not.
  ledger.undo_after(ClusterId{0}, mark);
  const auto v = ledger.validate(true);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("ghost"), std::string::npos);
}

TEST(Ledger, DetectsDuplicate) {
  ConsistencyLedger ledger;
  ledger.record_send(1, NodeId{0}, ClusterId{0}, seconds(1));
  ledger.record_delivery(1, NodeId{5}, ClusterId{1}, seconds(2));
  ledger.record_delivery(1, NodeId{5}, ClusterId{1}, seconds(3));
  const auto v = ledger.validate(true);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("duplicate"), std::string::npos);
}

TEST(Ledger, RollbackPlusResendIsConsistent) {
  // The HC3I happy path: receiver rolls back (delivery undone), the sender
  // log re-sends, the new delivery lands.
  ConsistencyLedger ledger;
  ledger.record_send(1, NodeId{0}, ClusterId{0}, seconds(1));
  const std::uint64_t mark = ledger.mark();
  ledger.record_delivery(1, NodeId{5}, ClusterId{1}, seconds(2));
  ledger.undo_after(ClusterId{1}, mark);
  ledger.record_send(1, NodeId{0}, ClusterId{0}, seconds(3));  // resend
  ledger.record_delivery(1, NodeId{5}, ClusterId{1}, seconds(4));
  EXPECT_TRUE(ledger.validate(false).empty());
  EXPECT_EQ(ledger.undone_events(), 1u);
}

TEST(Ledger, UndoIsScopedToOwner) {
  ConsistencyLedger ledger;
  const std::uint64_t mark = ledger.mark();
  ledger.record_send(1, NodeId{0}, ClusterId{0}, seconds(1));
  ledger.record_send(2, NodeId{9}, ClusterId{1}, seconds(1));
  ledger.undo_after(ClusterId{0}, mark);
  // Only cluster 0's send is undone.
  EXPECT_EQ(ledger.undone_events(), 1u);
}

TEST(Ledger, NodeScopedUndo) {
  ConsistencyLedger ledger;
  const std::uint64_t mark = ledger.mark();
  ledger.record_send(1, NodeId{0}, ClusterId{0}, seconds(1));
  ledger.record_send(2, NodeId{1}, ClusterId{0}, seconds(1));
  ledger.undo_after_node(NodeId{0}, mark);
  EXPECT_EQ(ledger.undone_events(), 1u);  // same cluster, different node kept
}

}  // namespace
}  // namespace hc3i::proto
