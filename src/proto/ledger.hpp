#pragma once

// Consistency ledger — the ground-truth oracle for recovery correctness.
//
// The paper defines consistency (§2.2): a stored global state must contain
// "neither in-transit messages (sent but not received) nor ghost-messages
// (received but not sent)".  The ledger operationalises that for a whole
// execution with rollbacks: every application send and delivery is recorded
// with a global sequence number and its owner (node + cluster); a rollback
// *undoes* the owner's events newer than the restored checkpoint's cut —
// cluster-wide for cluster-granularity protocols (HC3I, the coordinated
// baselines), per-node for the pessimistic-logging baseline.
// At the end of a run (after a drain), for every logical message:
//
//   * at most one live delivery (no duplicates),
//   * a live delivery implies a live send (no ghost messages),
//   * a live send implies a live delivery (reliable network: nothing lost).
//
// Any checkpointing protocol wired through proto::AgentBase gets audited
// automatically; the property tests drive random failures through it.
//
// Memory: the ledger records on every run, so it is the one structure that
// grows with the horizon however a run is configured.  An event is 16 bytes
// (its sequence number is its position, plus one) and events live in
// fixed-size chunks that are never relocated, so growth neither copies the
// history nor holds two buffers at once (docs/scaling.md).

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/ids.hpp"

namespace hc3i::proto {

/// Ledger of application-level send/delivery events.
class ConsistencyLedger {
 public:
  /// Events per chunk: 64 KiB of 16-byte events.
  static constexpr std::size_t kChunkEvents = 4096;

  /// Record a send of logical message `app_seq` whose send-state belongs to
  /// node `src` in cluster `src_cluster`. Returns the event's sequence.
  /// `app_seq` must be below 2^63 (it is stored shifted left by one).
  std::uint64_t record_send(std::uint64_t app_seq, NodeId src,
                            ClusterId src_cluster) {
    return append(app_seq, false, src, src_cluster);
  }

  /// Record a delivery of `app_seq` into node `dst`'s state.
  std::uint64_t record_delivery(std::uint64_t app_seq, NodeId dst,
                                ClusterId dst_cluster) {
    return append(app_seq, true, dst, dst_cluster);
  }

  /// Current cut: events with sequence <= mark() are "in the state so far".
  /// Checkpoints store this; rollbacks undo past it.
  std::uint64_t mark() const { return size_; }

  /// Undo every live event owned by any node of cluster `c` with sequence
  /// > `mark` (the whole cluster rolled back to that cut).
  void undo_after(ClusterId c, std::uint64_t mark);

  /// Undo every live event owned by node `n` with sequence > `mark`
  /// (per-node rollback, pessimistic-logging baseline).
  void undo_after_node(NodeId n, std::uint64_t mark);

  /// Validate the whole history.  When `allow_in_flight` is true, messages
  /// with a live send but no delivery are tolerated (simulation stopped at
  /// a hard horizon); ghosts and duplicates never are.
  /// Returns human-readable violations; empty means consistent.
  std::vector<std::string> validate(bool allow_in_flight) const;

  /// Count of undone events (both kinds) — a measure of rolled-back work.
  std::uint64_t undone_events() const { return undone_count_; }
  /// Total events recorded.
  std::uint64_t total_events() const { return size_; }

 private:
  /// One send or delivery.  Event i (0-based) has sequence i + 1: every
  /// record_* call appends exactly one event.
  struct Event {
    std::uint64_t key;             ///< app_seq << 1 | is_delivery
    NodeId owner_node;             ///< whose state the event belongs to
    std::uint32_t cluster_undone;  ///< owner cluster << 1 | undone
  };
  static_assert(sizeof(Event) == 16);

  using Chunk = std::array<Event, kChunkEvents>;

  std::uint64_t append(std::uint64_t app_seq, bool delivery, NodeId owner,
                       ClusterId owner_cluster);

  /// Undo the live events past `mark` that `owned` selects.
  template <typename Owned>
  void undo_past(std::uint64_t mark, Owned owned);

  std::vector<std::unique_ptr<Chunk>> chunks_;
  std::uint64_t size_{0};
  std::uint64_t undone_count_{0};
};

}  // namespace hc3i::proto
