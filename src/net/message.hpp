#pragma once

// Message envelope carried by the simulated network.
//
// The paper's system model (Fig. 2): nodes are system-level modules that
// "catch every inter-process message" and may piggy-back protocol data on it.
// Envelope models one in-flight message: addressing, modelled size, the
// HC3I piggyback area, and (for protocol messages) a typed control payload.

#include <cstdint>
#include <memory>

#include "proto/ddv.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace hc3i::net {

/// Coarse message class: application traffic vs. protocol control traffic.
/// Control traffic is never queued/frozen by checkpointing rounds.
enum class MsgClass : std::uint8_t {
  kApp,      ///< application payload (subject to CLC freezing, logging, CIC)
  kControl,  ///< protocol internal (2PC, acks, alerts, GC, replicas)
};

/// Protocol metadata piggy-backed on application messages (paper §3.2):
/// "The current cluster's sequence number is piggy-backed on each
/// inter-cluster application message."  The incarnation tag and the optional
/// full DDV are implementation refinements (docs/paper_map.md).
struct Piggyback {
  /// Sender cluster's SN at send time.
  SeqNum sn{0};
  /// Sender cluster's incarnation at send time (bumped on rollback).
  Incarnation incarnation{0};
  /// Optional full DDV (transitive-dependency extension, paper §7);
  /// empty when the extension is off.  The unified inline-small / COW-spill
  /// representation (proto/ddv.hpp) means copying an envelope never
  /// allocates, and senders assign their live DDV directly — the snapshot
  /// stays frozen because mutators detach.
  proto::Ddv ddv;

  /// Modelled wire size of the piggyback area.
  std::uint64_t wire_bytes() const {
    return sizeof(SeqNum) + sizeof(Incarnation) +
           ddv.size() * sizeof(SeqNum);
  }
};

/// Base class for typed control payloads.  Concrete payload types live with
/// the protocol that defines them (src/hc3i/control.hpp, baselines); the
/// network carries them opaquely by shared_ptr (messages are immutable once
/// sent, so sharing is safe and keeps re-send cheap).
///
/// `kind` is a protocol-defined dispatch tag (each payload type passes its
/// unique constant up from its constructor): receive dispatch is an integer
/// compare per candidate instead of a dynamic_cast, which matters because
/// every control message crosses it.  Tag ranges are per protocol
/// (hc3i 1-13, global baseline 20+, pessimistic 30+); payloads never cross
/// protocols, the ranges just keep mistakes loud.
struct ControlPayload {
  ControlPayload() = default;
  explicit ControlPayload(std::uint32_t k) : kind(k) {}
  virtual ~ControlPayload() = default;

  std::uint32_t kind{0};
};

/// One message in flight.
struct Envelope {
  MsgId id{};                     ///< unique per transmission (re-sends get new ids)
  NodeId src{};                   ///< sending node
  NodeId dst{};                   ///< receiving node
  ClusterId src_cluster{};        ///< cluster of src (cached for routing/stats)
  ClusterId dst_cluster{};        ///< cluster of dst
  MsgClass cls{MsgClass::kApp};
  std::uint64_t payload_bytes{0}; ///< application/control body size
  SimTime sent_at{};              ///< send timestamp (set by the network)
  Piggyback piggy{};              ///< protocol piggyback (app messages)
  std::shared_ptr<const ControlPayload> control; ///< null for app messages

  /// Stable application-level identity: a logical app message keeps its
  /// app_seq across re-sends, letting receivers de-duplicate and the
  /// consistency checker match sends to deliveries.  0 for control traffic.
  std::uint64_t app_seq{0};

  /// True when src and dst are in the same cluster.
  bool intra_cluster() const { return src_cluster == dst_cluster; }

  /// Total modelled wire size (payload + piggyback).
  std::uint64_t wire_bytes() const {
    return payload_bytes + (cls == MsgClass::kApp ? piggy.wire_bytes() : 0);
  }
};

/// Downcast a received envelope's control payload iff its kind tag matches
/// `T::kKind` — an integer compare per candidate type, not a dynamic_cast
/// (this runs for every control message a protocol receives).
template <typename T>
const T* payload_as(const Envelope& env) {
  const ControlPayload* p = env.control.get();
  return p != nullptr && p->kind == T::kKind ? static_cast<const T*>(p)
                                             : nullptr;
}

}  // namespace hc3i::net
