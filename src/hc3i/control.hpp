#pragma once

// HC3I protocol control messages.
//
// These are the payload types carried with net::MsgClass::kControl between
// agents: the intra-cluster two-phase commit (paper §3.1), the forced-CLC
// demand path (§3.2), inter-cluster acknowledgements for the sender log
// (§3.3), rollback alerts (§3.4) and the garbage-collection round (§3.5).
// Every intra-cluster message carries the sender's cluster incarnation so a
// rollback invalidates in-flight rounds without extra machinery.

#include <cstdint>
#include <vector>

#include "net/message.hpp"
#include "proto/clc_store.hpp"
#include "proto/ddv.hpp"
#include "proto/gc_wire.hpp"
#include "proto/recovery_line.hpp"
#include "util/ids.hpp"

namespace hc3i::core {

/// Modelled wire sizes for control messages (bytes).  The exact values only
/// matter for the network-overhead accounting; they are chosen to be
/// plausible for the fields carried.
struct ControlSizes {
  static constexpr std::uint64_t kSmall = 64;       ///< fixed-field messages
  static constexpr std::uint64_t kPerDdvEntry = 4;  ///< per DDV entry
};

/// Coordinator -> cluster: take a tentative local checkpoint (2PC phase 1).
struct ClcRequest final : net::ControlPayload {
    static constexpr std::uint32_t kKind = 1;
    ClcRequest() : ControlPayload(kKind) {}
  std::uint64_t round{0};
  Incarnation inc{0};
};

/// Node -> its ring neighbour: store my checkpoint part replica
/// (paper §3.1 stable storage; payload_bytes models the state transfer).
struct ReplicaStore final : net::ControlPayload {
    static constexpr std::uint32_t kKind = 2;
    ReplicaStore() : ControlPayload(kKind) {}
  std::uint64_t round{0};
  Incarnation inc{0};
  NodeId origin{};
};

/// Neighbour -> node: replica persisted.
struct ReplicaAck final : net::ControlPayload {
    static constexpr std::uint32_t kKind = 3;
    ReplicaAck() : ControlPayload(kKind) {}
  std::uint64_t round{0};
  Incarnation inc{0};
};

/// Node -> coordinator: local checkpoint + replica done (2PC phase 1 ack).
/// Only the acknowledgement travels (paper §3.1): the node's tentative
/// part stays on the node until the commit files it, and the commit merges
/// the nodes' DDV views in place (identical cluster-wide under HC3I;
/// per-node under the independent baseline).
struct ClcAck final : net::ControlPayload {
    static constexpr std::uint32_t kKind = 4;
    ClcAck() : ControlPayload(kKind) {}
  std::uint64_t round{0};
  Incarnation inc{0};
  NodeId node{};
};

/// Coordinator -> cluster: commit the CLC (2PC phase 2). Carries the new
/// SN and the committed DDV so every node re-synchronises both (paper §3.2:
/// "we use the synchronization induced by the CLC two-phase commit").
struct ClcCommit final : net::ControlPayload {
    static constexpr std::uint32_t kKind = 5;
    ClcCommit() : ControlPayload(kKind) {}
  std::uint64_t round{0};
  Incarnation inc{0};
  SeqNum sn{0};
  proto::Ddv ddv;
};

/// Any node -> coordinator: an inter-cluster message with a fresh SN
/// arrived; a forced CLC is required before it can be delivered (§3.2).
struct ClcDemand final : net::ControlPayload {
    static constexpr std::uint32_t kKind = 6;
    ClcDemand() : ControlPayload(kKind) {}
  Incarnation inc{0};
  ClusterId from_cluster{};
  SeqNum observed_sn{0};
  /// With the transitive extension (paper §7), the full piggybacked DDV
  /// (copied from the envelope by refcount bump / inline memcpy).
  proto::Ddv observed_ddv;
};

/// Receiver -> sender of an inter-cluster application message: delivery
/// acknowledgement for the sender log (§3.3).
struct InterAck final : net::ControlPayload {
    static constexpr std::uint32_t kKind = 7;
    InterAck() : ControlPayload(kKind) {}
  MsgId msg{};
  SeqNum ack_sn{0};
  Incarnation ack_inc{0};
};

/// Rolled-back cluster -> one node of every other cluster (§3.4).
struct RollbackAlert final : net::ControlPayload {
    static constexpr std::uint32_t kKind = 8;
    RollbackAlert() : ControlPayload(kKind) {}
  ClusterId faulty{};
  SeqNum restored_sn{0};
  Incarnation new_inc{0};
};

/// Intra-cluster relay of a received alert (every node must scan its log).
struct AlertRelay final : net::ControlPayload {
    static constexpr std::uint32_t kKind = 9;
    AlertRelay() : ControlPayload(kKind) {}
  Incarnation inc{0};  ///< receiving cluster's incarnation
  RollbackAlert alert;
};

/// GC initiator -> one node per cluster: send your stored-CLC DDV list.
struct GcRequest final : net::ControlPayload {
    static constexpr std::uint32_t kKind = 10;
    GcRequest() : ControlPayload(kKind) {}
  std::uint64_t gc_round{0};
};

/// Reply: the cluster's retained checkpoint metadata (§3.5), delta+varint
/// compressed (proto/gc_wire.hpp) — the paper calls the DDV list out as the
/// GC's main network cost, and uncompressed it grows with records x
/// clusters along a scale-out sweep.
struct GcResponse final : net::ControlPayload {
    static constexpr std::uint32_t kKind = 11;
    GcResponse() : ControlPayload(kKind) {}
  std::uint64_t gc_round{0};
  ClusterId cluster{};
  proto::EncodedClcMetas metas;
};

/// GC initiator -> one node per cluster: the smallest-SN vector; prune.
struct GcCollect final : net::ControlPayload {
    static constexpr std::uint32_t kKind = 12;
    GcCollect() : ControlPayload(kKind) {}
  std::uint64_t gc_round{0};
  std::vector<SeqNum> min_sns;
};

/// Intra-cluster broadcast of GcCollect so every node prunes its log.
struct GcPrune final : net::ControlPayload {
    static constexpr std::uint32_t kKind = 13;
    GcPrune() : ControlPayload(kKind) {}
  Incarnation inc{0};
  std::vector<SeqNum> min_sns;
};

}  // namespace hc3i::core
