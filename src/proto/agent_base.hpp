#pragma once

// Shared agent plumbing.
//
// AgentBase centralises the bookkeeping every protocol must get right so the
// consistency ledger audits all of them uniformly:
//
//   * send_app()     — build the envelope, record the send in the ledger at
//                      the moment it actually enters the network (queued
//                      sends are recorded at drain time, which is what makes
//                      checkpoint cuts exact — docs/paper_map.md),
//   * deliver_app()  — record the delivery and hand the message to the app,
//   * send_control() / broadcast helpers for protocol traffic,
//   * the frozen-application gate (inline and non-virtual: it sits on every
//     application send and delivery), the rollback freeze and resume, and
//     the rollback counters every protocol shares.

#include <string>
#include <vector>

#include "proto/agent.hpp"

namespace hc3i::proto {

/// Base class: ledger-audited send/deliver helpers, the frozen-application
/// gate and the rollback bookkeeping every protocol shares.
class AgentBase : public ProtocolAgent {
 public:
  explicit AgentBase(AgentContext ctx);

  /// Inside a checkpoint round: application traffic is held until commit.
  bool in_round() const { return in_round_; }

 protected:
  /// Transmit an application message now. Records the send in the ledger.
  /// Returns the envelope as sent (id assigned) for sender-side logging.
  net::Envelope send_app(NodeId dst, std::uint64_t bytes,
                         std::uint64_t app_seq, const net::Piggyback& piggy);

  /// Re-transmit a logged envelope (same app_seq and piggyback, new MsgId).
  /// The ledger sees resends as additional live sends of the same logical
  /// message. Returns the new envelope for re-logging.
  net::Envelope resend_app(const net::Envelope& original);

  /// Deliver an application message to the local process (ledger-recorded).
  void deliver_app(const net::Envelope& env);

  /// Transmit a control message carrying `payload`.
  MsgId send_control(NodeId dst, std::uint64_t bytes,
                     std::shared_ptr<const net::ControlPayload> payload);

  /// Like send_control, but a message to self is processed locally through
  /// on_message via an immediately scheduled event (uniform code path).
  void send_control_or_local(NodeId dst, std::uint64_t bytes,
                             std::shared_ptr<const net::ControlPayload> payload);

  /// Send a control message to every node of `cluster` except self;
  /// when `include_self` is set the payload is also processed locally.
  void broadcast_control(ClusterId cluster, std::uint64_t bytes,
                         std::shared_ptr<const net::ControlPayload> payload,
                         bool include_self);

  /// Simulation clock shorthand.
  SimTime now() const { return ctx_.sim->now(); }

  /// Lazily resolve a registry counter handle into `slot`: the name lookup
  /// happens once per agent, the counter still only exists once touched.
  stats::Counter& named_stat(stats::Counter*& slot, std::string_view name) {
    return stats::lazy_counter(*ctx_.registry, slot, [name] { return name; });
  }

  /// Lazily resolve this cluster's "<name>.c<cluster>" counter (see
  /// named_stat()).
  stats::Counter& cluster_stat(stats::Counter*& slot, const char* name) {
    return stats::lazy_counter(*ctx_.registry, slot, [this, name] {
      return std::string(name) + ".c" + std::to_string(cluster().v);
    });
  }

  /// Lazily resolve a summary handle (see named_stat()).
  stats::Summary& named_summary(stats::Summary*& slot, std::string_view name) {
    return stats::lazy_summary(*ctx_.registry, slot, [name] { return name; });
  }

  /// First node of a cluster — the conventional coordinator.
  NodeId coordinator_of(ClusterId c) const {
    return ctx_.topology->first_node(c);
  }
  bool is_cluster_coordinator() const {
    return self() == coordinator_of(cluster());
  }

  /// Index of node `n` within this node's cluster (its first node is 0).
  std::uint32_t local_index(NodeId n) const {
    HC3I_CHECK(ctx_.topology->cluster_of(n) == cluster(),
               "local_index: node outside this cluster");
    return n.v - cluster_base_.v;
  }

  // -- the frozen-application gate -------------------------------------------

  struct QueuedSend {
    NodeId dst;
    std::uint64_t bytes;
    std::uint64_t app_seq;
  };

  /// An application send: kPass transmits it now; kDropped means frozen for
  /// a rollback (the restored state re-issues it); kQueued means held in
  /// queued_sends_ until end_round().
  enum class SendGate : std::uint8_t { kPass, kDropped, kQueued };
  SendGate gate_send(NodeId dst, std::uint64_t bytes, std::uint64_t app_seq) {
    if (rollback_pending_) return SendGate::kDropped;
    if (!in_round_) return SendGate::kPass;
    queued_sends_.push_back(QueuedSend{dst, bytes, app_seq});
    return SendGate::kQueued;
  }

  /// True when the arrival `env` is held: stashed while frozen for a
  /// rollback (replayed by resume_from_rollback()) or deferred during a
  /// round (replayed by end_round()).
  bool hold_arrival(const net::Envelope& env) {
    if (rollback_pending_) {
      post_rollback_stash_.push_back(env);
      return true;
    }
    if (!in_round_) return false;
    deferred_.push_back(env);
    return true;
  }

  /// The round committed: leave it, then hand every queued send to `send`
  /// (they carry the new epoch) and every deferred arrival to `arrive`, each
  /// in issue order.
  template <typename Send, typename Arrive>
  void end_round(Send&& send, Arrive&& arrive) {
    in_round_ = false;
    auto sends = std::move(queued_sends_);
    queued_sends_.clear();
    for (const QueuedSend& q : sends) send(q);
    auto arrivals = std::move(deferred_);
    deferred_.clear();
    for (const net::Envelope& env : arrivals) arrive(env);
  }

  /// Freeze the application for a rollback to `restored`: the work done
  /// since that snapshot is lost (rollback.lost_work_s), the round and
  /// whatever it held is dropped, and arrivals are stashed until
  /// resume_from_rollback().
  void freeze_for_rollback(const AppSnapshot& restored);

  /// The state transfer completed: restore the application from `restored`,
  /// run `then` (protocol work that must follow the restore), and replay
  /// the arrivals stashed while frozen, in arrival order.
  template <typename Then>
  void resume_from_rollback(const AppSnapshot& restored, Then&& then) {
    rollback_pending_ = false;
    ctx_.app->restore(restored);
    then();
    auto stash = std::move(post_rollback_stash_);
    post_rollback_stash_.clear();
    for (const net::Envelope& env : stash) on_message(env);
  }

  // -- rollback counters shared by every protocol ---------------------------

  /// One rollback (rollback.count) of `nodes` nodes (rollback.nodes); a
  /// cluster rollback from SN `from` to `to` also records its depth in CLCs
  /// (rollback.depth_clcs).
  void count_rollback(std::uint32_t nodes);
  void count_rollback(std::uint32_t nodes, SeqNum from, SeqNum to);
  /// An application message from an undone epoch was dropped.
  void count_stale_drop() {
    named_stat(stat_stale_dropped_, "cic.stale_dropped").inc();
  }

  bool in_round_{false};          ///< between round request and commit
  bool rollback_pending_{false};  ///< protocol restored, application frozen
  std::vector<QueuedSend> queued_sends_;   ///< sends issued in the round
  std::vector<net::Envelope> deferred_;    ///< arrivals during the round
  std::vector<net::Envelope> post_rollback_stash_;  ///< arrivals while frozen

 private:
  net::Envelope make_local_control(
      std::uint64_t bytes,
      std::shared_ptr<const net::ControlPayload> payload) const;
  /// Schedule `payload` for immediate local processing through on_message.
  void deliver_control_locally(
      std::uint64_t bytes, std::shared_ptr<const net::ControlPayload> payload);

  const NodeId cluster_base_;  ///< first node of this cluster: local index 0
  stats::Counter* stat_stale_dropped_{nullptr};
  stats::Counter* stat_rollback_count_{nullptr};
  stats::Counter* stat_rollback_nodes_{nullptr};
  stats::Summary* stat_rollback_depth_{nullptr};
  stats::Summary* stat_lost_work_{nullptr};
};

}  // namespace hc3i::proto
