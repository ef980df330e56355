#pragma once

// CampaignEngine — compiles a declarative fault::Campaign into simulator
// events against a live federation and owns the recovery telemetry.
//
// Concurrency model: at most one fault in flight *per cluster*.
// Disjoint-cluster injections recover concurrently — the hierarchy exists
// precisely so independent cluster failures stay independent — while the
// paper's §2.1 one-fault assumption is enforced cluster-locally:
//
//   * a kill aimed at a cluster that is already recovering queues on that
//     cluster's FIFO and fires the instant *that cluster's* recovery
//     completes (every queued scripted, burst or repeat kill counts
//     `fault.queued_same_cluster`);
//   * per-cluster streams block — without consuming a draw — while their
//     own cluster recovers, and redraw at its completion; federation-wide
//     streams draw the victim first and block on the victim's cluster;
//   * phase-targeted triggers skip (`fault.skipped_overlap`) only when
//     their *own* cluster is recovering — a remote cluster's rollback does
//     not invalidate "between phase-1 ack and commit" here.
//
// Quiesce bound: the driver passes the same bound it applies to automatic
// failures (for message-logging protocols the horizon minus one checkpoint
// period plus margin — see driver/run.cpp).  Scripted kills and burst ends
// beyond the bound are rejected with a CheckFailure at arm() time; stream
// stops are clamped; repeat occurrences past the bound are dropped.
//
// Everything the engine schedules is deterministic: per-injector RNG
// streams are derived from the simulation's master seed with fixed ids, so
// one (seed, campaign) pair always produces a byte-identical counter dump.

#include <cstdint>
#include <optional>
#include <vector>

#include "fault/campaign.hpp"
#include "fault/telemetry.hpp"
#include "fed/federation.hpp"
#include "hc3i/runtime.hpp"
#include "util/rng.hpp"

namespace hc3i::fault {

/// Arms a campaign against a federation and records per-incident telemetry.
class CampaignEngine final : public core::ProtocolObserver {
 public:
  /// `runtime` may be null (non-HC3I protocols); phase triggers then reject
  /// at arm() time.  `quiesce_bound` is the last admissible injection time.
  CampaignEngine(fed::Federation& fed, core::Hc3iRuntime* runtime,
                 Campaign plan, SimTime quiesce_bound);

  CampaignEngine(const CampaignEngine&) = delete;
  CampaignEngine& operator=(const CampaignEngine&) = delete;

  /// Validate timing against the quiesce bound and schedule every injector.
  /// Call once, after Federation::start(); throws CheckFailure on a kill
  /// that cannot quiesce before validation.
  void arm();

  /// Close the open telemetry window (call after the simulation drains).
  void finalize();

  RecoveryTelemetry& telemetry() { return telemetry_; }

  // core::ProtocolObserver ---------------------------------------------------
  void on_phase1_ack(ClusterId cluster, std::uint64_t round,
                     std::uint32_t acks, std::uint32_t needed) override;
  void on_clc_commit(ClusterId cluster, SeqNum sn, bool forced) override;

 private:
  struct StreamState {
    StreamSpec spec;
    RngStream rng;
    SimTime stop{};  ///< spec.stop clamped to the quiesce bound
    std::optional<ClusterId> blocked_on{};  ///< waiting for this cluster's
                                            ///< recovery
  };
  struct TriggerState {
    PhaseTriggerSpec spec;
    std::uint32_t seen{0};
    bool done{false};
  };
  struct PendingKill {
    NodeId victim{};
    const char* source{""};
  };

  sim::Simulation& sim() { return fed_.simulation(); }
  ClusterId cluster_of(NodeId n) const {
    return fed_.topology().cluster_of(n);
  }

  /// Inject now (caller ensured the victim's cluster is clear) and open the
  /// incident record.
  void inject(NodeId victim, const char* source);
  /// Inject, or queue on the victim's cluster FIFO, bumping
  /// `fault.queued_same_cluster` each time it queues.
  void inject_or_queue(NodeId victim, const char* source);
  /// Inject, or drop with `fault.skipped_overlap` iff the victim's *own*
  /// cluster is recovering (phase triggers).
  void inject_or_skip(NodeId victim, const char* source);

  void schedule_stream_next(std::size_t i);
  void stream_fire(std::size_t i);
  void trigger_matched(TriggerState& t);
  void on_recovery(ClusterId cluster);

  fed::Federation& fed_;
  core::Hc3iRuntime* rt_;
  Campaign plan_;
  SimTime bound_;
  RecoveryTelemetry telemetry_;
  std::vector<StreamState> streams_;
  std::vector<TriggerState> triggers_;
  std::vector<std::vector<PendingKill>> cluster_queue_;  ///< per-cluster FIFOs
  bool armed_{false};
};

}  // namespace hc3i::fault
