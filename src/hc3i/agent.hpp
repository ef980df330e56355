#pragma once

// Hc3iAgent — the HC3I protocol (paper §3), one instance per node.
//
// Responsibilities, mapped to the paper:
//   §3.1  Cluster-level checkpointing: a two-phase-commit CLC inside the
//         cluster.  The coordinator (first node) broadcasts a request; each
//         node takes a tentative local checkpoint, writes its replica to a
//         ring neighbour, and acks; the coordinator commits.  Application
//         messages are queued between request and commit.  Each commit
//         increments the cluster SN.
//   §3.2  Federation-level checkpointing: each inter-cluster application
//         message piggybacks the sender cluster's SN; a receiver seeing a
//         fresher SN than its DDV entry stashes the message, demands a
//         forced CLC, and delivers only after that CLC commits.  DDVs are
//         synchronised cluster-wide at commit time.
//   §3.3  Sender-side optimistic logging of inter-cluster messages,
//         acknowledged with the receiver's SN at delivery.
//   §3.4  Rollback: the failed cluster restores its last CLC; rollback
//         alerts propagate the recovery line; non-rolled-back senders
//         replay logged messages.
//   §3.5  Centralized garbage collection of CLCs and logs.
//
// Implementation refinements beyond the paper's prose (the "(impl.)" rows of
// docs/paper_map.md):
// cluster incarnation numbers to filter stale in-flight messages, channel-
// state capture of intra-cluster in-flight messages at commit, checkpointed
// copies of the sender log so a failed node recovers its log, and receiver-
// side de-duplication of re-sent inter-cluster messages.
//
// Three protected virtual hooks (cic_should_force, the communication-induced
// forcing rule; on_inter_delivered, delivery-time DDV bookkeeping; and
// rollback_target, the §3.4 rollback rule) let the independent-
// checkpointing baseline reuse the entire machinery with forcing disabled —
// exactly the ablation the paper argues against in §2.2.

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "hc3i/control.hpp"
#include "hc3i/options.hpp"
#include "hc3i/runtime.hpp"
#include "proto/agent_base.hpp"
#include "proto/msg_log.hpp"
#include "sim/timer.hpp"

namespace hc3i::core {

/// The HC3I protocol agent.
class Hc3iAgent : public proto::AgentBase {
 public:
  Hc3iAgent(const proto::AgentContext& ctx, Hc3iRuntime& rt);

  // ProtocolAgent interface -------------------------------------------------
  void start() override;
  void app_send(NodeId dst, std::uint64_t bytes, std::uint64_t app_seq) override;
  void on_message(const net::Envelope& env) override;
  void on_failure_detected(NodeId failed) override;

  // Introspection (tests / runtime statistics) ------------------------------
  SeqNum sn() const { return sn_; }
  const proto::Ddv& ddv() const { return ddv_; }
  Incarnation incarnation() const { return inc_; }
  std::size_t log_size() const { return log_.size(); }
  const proto::MsgLog& msg_log() const { return log_; }
  std::size_t waiting_forced() const { return wait_force_.size(); }

  /// Why a CLC round was started (statistics bucket).
  enum class RoundReason { kInitial, kTimer, kForced };

 protected:
  // -- protocol-variant hooks (overridden by the independent baseline)
  /// Should this inter-cluster arrival force a CLC before delivery?
  virtual bool cic_should_force(const net::Envelope& env) const;
  /// Delivery-time DDV bookkeeping (no-op for HC3I: DDVs change at commit).
  virtual void on_inter_delivered(const net::Envelope& env);
  /// The CLC this cluster restores for alert (f, restored_sn), or nullptr
  /// when it need not roll back (HC3I: proto::rollback_target, §3.4).
  virtual const proto::ClcRecord* rollback_target(ClusterId f,
                                                  SeqNum restored_sn) const;

  Hc3iRuntime& rt_;

 private:
  // -- receive dispatch
  void on_app_message(const net::Envelope& env);
  void on_control_message(const net::Envelope& env);

  // -- intra-cluster 2PC (paper §3.1)
  void on_clc_timer();
  void coordinator_begin_round(RoundReason reason);
  void handle_clc_request(const ClcRequest& m);
  void handle_replica_store(const net::Envelope& env, const ReplicaStore& m);
  void handle_replica_ack(const ReplicaAck& m);
  void handle_clc_ack(const ClcAck& m);
  void coordinator_commit_round();
  void handle_clc_commit(const ClcCommit& m);
  void send_phase1_ack();

  // -- communication-induced path (paper §3.2)
  void receive_inter_app(const net::Envelope& env);
  void deliver_and_ack(const net::Envelope& env);
  bool is_stale(const net::Envelope& env) const;
  void drain_wait_queue();
  void handle_clc_demand(const ClcDemand& m);
  void send_demand(ClusterId from, SeqNum sn, const proto::Ddv& ddv);

  // -- logging / acks (paper §3.3)
  void handle_inter_ack(const InterAck& m);
  void do_send(NodeId dst, std::uint64_t bytes, std::uint64_t app_seq);

  // -- rollback (paper §3.4)
  void rollback_cluster(proto::ClcRecord rec, bool fault_origin);
  void apply_cluster_rollback(const proto::ClcRecord& rec, Incarnation new_inc,
                              bool lost_memory);
  void resume_after_rollback(const proto::ClcRecord& rec);
  void handle_rollback_alert(const RollbackAlert& m);
  void handle_alert_relay(const AlertRelay& m);

  // -- garbage collection (paper §3.5)
  void on_gc_timer();
  void handle_gc_request(const net::Envelope& env, const GcRequest& m);
  void handle_gc_response(const GcResponse& m);
  void handle_gc_collect(const GcCollect& m);
  void handle_gc_prune(const GcPrune& m);

  // -- helpers
  /// Capture this node's CLC part.  Non-const: with a storage backend the
  /// capture consumes the app's dirty-range watermark (delta chains).
  proto::NodePart make_part();
  /// Tail of handle_clc_request: replica writes or the phase-1 ack.  Split
  /// out so a storage backend can charge the capture-write stall on the
  /// simulated clock before it runs.
  void finish_capture();
  std::uint32_t replicas_needed() const;
  proto::ClcStore& store() { return rt_.store(cluster()); }
  const proto::ClcStore& store() const { return rt_.store(cluster()); }
  void note_log_highwater();

 protected:
  // Replicated cluster state (synchronised by the 2PC; the invariant tests
  // assert all nodes of a cluster agree outside rounds, as the paper claims).
  SeqNum sn_{0};
  proto::Ddv ddv_;
  Incarnation inc_{0};

 private:
  // Node-local protocol state.
  proto::MsgLog log_;
  proto::DedupSet dedup_;                   ///< delivered inter app_seqs
                                            ///< (hashed membership; sorted
                                            ///< shared image at capture)
  std::vector<net::Envelope> wait_force_;   ///< stashed, awaiting forced CLC
  std::uint64_t round_{0};                  ///< round currently joined
  /// A ClcRequest for a round NEWER than the one we're in: the previous
  /// round's commit carries the merged DDV, so it is larger and slower on
  /// the SAN than the next round's request — when the coordinator opens the
  /// next round at commit time, the request can overtake the commit.
  /// Dropping it would deadlock the new round (no ack, no retransmit);
  /// instead it is held here and replayed once our commit lands.  Rounds
  /// are serialised, so at most one can be pending.
  std::optional<ClcRequest> pending_request_;
  std::uint32_t replica_acks_{0};
  /// This node's part of the open round, from capture until the
  /// coordinator's commit files it (the ack carries no copy).
  std::optional<proto::NodePart> tentative_;
  std::optional<std::uint32_t> lost_memory_idx_;  ///< failed node (this fault)

  // Rollback bookkeeping.
  struct RollbackInfo {
    Incarnation inc;
    SeqNum restored;
  };
  std::vector<std::vector<RollbackInfo>> known_rollbacks_;  ///< [cluster];
                                            ///< sized lazily at the first
                                            ///< alert (empty = none known)
  std::set<std::pair<std::uint32_t, Incarnation>> alerts_seen_;

  // Coordinator round state.
  bool round_active_{false};
  std::uint64_t next_round_{1};
  std::uint64_t active_round_id_{0};
  RoundReason round_reason_{RoundReason::kInitial};
  std::map<std::uint32_t, SeqNum> pending_raises_;  ///< cluster -> demanded SN
  std::optional<proto::Ddv> pending_merge_;         ///< transitive extension
  std::vector<bool> acked_;                 ///< [local index] acked this round
  std::size_t acks_received_{0};
  std::unique_ptr<sim::Timer> clc_timer_;

  // Pre-resolved stats handles (see cluster_stat()).
  stats::Counter* stat_log_max_entries_{nullptr};
  stats::Counter* stat_log_max_unacked_{nullptr};
  stats::Counter* stat_queued_sends_{nullptr};
  stats::Counter* stat_forced_triggers_{nullptr};
  stats::Counter* stat_clc_total_{nullptr};
  stats::Counter* stat_clc_initial_{nullptr};
  stats::Counter* stat_clc_unforced_{nullptr};
  stats::Counter* stat_clc_forced_{nullptr};
  stats::Counter* stat_store_max_clcs_{nullptr};
  stats::Counter* stat_store_max_bytes_{nullptr};
  stats::Counter* stat_rollback_faults_{nullptr};
  stats::Counter* stat_rollback_count_{nullptr};
  stats::Counter* stat_rollback_cascade_{nullptr};
  stats::Counter* stat_gc_removed_{nullptr};
  stats::Counter* stat_gc_resp_saved_{nullptr};
  // Checkpoint-storage accounting (only touched when a backend is
  // configured, so storage-off dumps stay byte-identical to the seed).
  stats::Counter* stat_ckpt_bytes_{nullptr};
  stats::Counter* stat_ckpt_saved_{nullptr};
  stats::Counter* stat_ckpt_stall_{nullptr};
  stats::Counter* stat_recovery_read_{nullptr};
  stats::Counter* stat_g_ckpt_bytes_{nullptr};
  stats::Counter* stat_g_ckpt_saved_{nullptr};
  stats::Counter* stat_g_ckpt_stall_{nullptr};
  stats::Counter* stat_g_recovery_read_{nullptr};

  // GC initiator state (coordinator of cluster 0 only).
  std::unique_ptr<sim::Timer> gc_timer_;
  bool gc_active_{false};
  std::uint64_t gc_round_{0};
  std::uint64_t gc_epoch_at_start_{0};
  std::vector<std::optional<std::vector<proto::ClcMeta>>> gc_metas_;
  std::size_t gc_responses_{0};
};

}  // namespace hc3i::core
