#pragma once

// Coordinated checkpointing across the whole federation — the strawman the
// paper rejects in §2.2 ("The large number of nodes and network performance
// between clusters do not allow a global synchronization") — plus the
// two-level hierarchical-coordinated variant of Paul, Gupta & Badrinath
// ([9] in the paper, discussed in §6).
//
// Flat mode: a single federation coordinator two-phase-commits a global
// checkpoint with every node directly: each request/ack crosses the WAN per
// node.  Hierarchical mode: the federation coordinator talks only to the
// cluster coordinators, which run the phase locally and report one
// aggregate ack — far fewer WAN crossings and a shorter freeze, the
// improvement [9] claims.  Both freeze application traffic between request
// and commit, both roll *every* cluster back to the last committed global
// checkpoint on any failure (no dependency tracking, no logging).
//
// The ablation bench contrasts: freeze time per checkpoint, WAN control
// bytes, clusters rolled back per failure, rollback depth.

#include <memory>
#include <optional>
#include <vector>

#include "config/spec.hpp"
#include "proto/agent_base.hpp"
#include "proto/clc_store.hpp"
#include "sim/timer.hpp"

namespace hc3i::baselines {

class GlobalAgent;

/// Shared state for the coordinated-global / hierarchical-coordinated runs.
class GlobalRuntime {
 public:
  /// `hierarchical` selects the two-level [9] variant.
  GlobalRuntime(const config::RunSpec& spec, bool hierarchical);

  proto::AgentFactory factory();

  bool hierarchical() const { return hierarchical_; }
  const config::RunSpec& spec() const { return spec_; }
  std::size_t cluster_count() const { return spec_.topology.cluster_count(); }

  Incarnation incarnation() const { return inc_; }
  Incarnation bump_incarnation() { return ++inc_; }

  const std::vector<GlobalAgent*>& agents() const { return agents_; }

 private:
  friend class GlobalAgent;
  config::RunSpec spec_;
  bool hierarchical_;
  /// The latest global checkpoint — one record per cluster, all with the
  /// same SN (empty before the first commit) — and the global channel
  /// state captured with it.  A failure always restores the latest one, so
  /// nothing older is kept.
  std::vector<proto::ClcRecord> latest_;
  std::vector<net::Envelope> latest_channel_;
  Incarnation inc_{0};
  std::vector<GlobalAgent*> agents_;  ///< all nodes, in node order
};

/// Agent for both global-coordinated variants.
class GlobalAgent final : public proto::AgentBase {
 public:
  GlobalAgent(const proto::AgentContext& ctx, GlobalRuntime& rt);

  void start() override;
  void app_send(NodeId dst, std::uint64_t bytes, std::uint64_t app_seq) override;
  void on_message(const net::Envelope& env) override;
  void on_failure_detected(NodeId failed) override;

  SeqNum sn() const { return sn_; }

 private:
  // Pre-resolved stats handles (per-round paths; see AgentBase::named_stat).
  // The per-cluster pair is (clc.total, clc.unforced).
  stats::Counter* stat_rollback_faults_{nullptr};
  stats::Summary* stat_freeze_{nullptr};
  std::vector<std::pair<stats::Counter*, stats::Counter*>> stat_clc_by_cluster_;

  struct GReq final : net::ControlPayload {
    static constexpr std::uint32_t kKind = 20;
    GReq() : ControlPayload(kKind) {}
    std::uint64_t round{0};
    Incarnation inc{0};
  };
  /// Tentative checkpoint taken; the part stays on the node until the
  /// commit files it.
  struct GAck final : net::ControlPayload {
    static constexpr std::uint32_t kKind = 21;
    GAck() : ControlPayload(kKind) {}
    std::uint64_t round{0};
    Incarnation inc{0};
    NodeId node{};
  };
  /// Hierarchical mode: one aggregate ack per cluster.
  struct GClusterAck final : net::ControlPayload {
    static constexpr std::uint32_t kKind = 22;
    GClusterAck() : ControlPayload(kKind) {}
    std::uint64_t round{0};
    Incarnation inc{0};
    ClusterId cluster{};
  };
  struct GCommit final : net::ControlPayload {
    static constexpr std::uint32_t kKind = 23;
    GCommit() : ControlPayload(kKind) {}
    std::uint64_t round{0};
    Incarnation inc{0};
    SeqNum sn{0};
  };

  bool is_global_coordinator() const { return self().v == 0; }
  void on_timer();
  void begin_round();
  void handle_req(const GReq& m);
  void handle_ack(const GAck& m);
  void handle_cluster_ack(const GClusterAck& m);
  void handle_commit(const GCommit& m);
  void take_tentative(std::uint64_t round);
  void commit_round();
  void global_rollback(ClusterId fault_cluster);
  void apply_rollback(const proto::ClcRecord& rec, Incarnation new_inc);
  void resume(const proto::ClcRecord& rec);
  proto::NodePart make_part() const;

  GlobalRuntime& rt_;
  SeqNum sn_{0};
  Incarnation inc_{0};
  std::uint64_t round_{0};
  std::optional<proto::NodePart> tentative_;

  // Global-coordinator round state (node 0 only).
  bool round_active_{false};
  std::uint64_t next_round_{1};
  std::vector<bool> acked_;  ///< [node] acked this round
  std::size_t acks_received_{0};
  std::unique_ptr<sim::Timer> timer_;
  SimTime round_started_{};

  // Cluster-coordinator aggregation state (hierarchical mode).
  std::vector<bool> cluster_acked_;  ///< [local index] acked this round
  std::size_t cluster_acks_{0};
  std::uint64_t cluster_round_{0};
};

}  // namespace hc3i::baselines
