#pragma once

// Pessimistic message-logging baseline (MPICH-V-like; paper §6):
// "All the communications are logged and can be replayed.  This avoids all
// dependencies so that a faulty node will rollback, but not the others.
// But this means that strong assumptions upon determinism have to be made."
//
// Model: every node checkpoints independently on its own timer (no 2PC, no
// coordination); every delivered application message is also copied to a
// stable "channel memory" (the ring neighbour — doubling delivery traffic,
// the characteristic MPICH-V overhead).  On a failure only the failed node
// restores its last checkpoint; its received messages since then are
// replayed in order from the channel memory, and its sends re-execute
// identically under the PWD assumption (the workload must run in
// ReplayMode::kDeterministic — the driver enforces it).  Receivers
// de-duplicate re-executed sends by app_seq.
//
// Caveat: recovery re-executes the victim's lost work in simulated time
// (up to one checkpoint period), during which the rest of the federation
// is consistently *ahead* of the victim.  A failure injected without that
// much runway before the application horizon leaves the replay cut off,
// so the driver stops automatic failure injection one checkpoint period
// (plus slack) before the end of the run.

#include <memory>
#include <optional>
#include <unordered_set>
#include <vector>

#include "config/spec.hpp"
#include "proto/agent_base.hpp"
#include "proto/snapshot.hpp"
#include "sim/timer.hpp"

namespace hc3i::baselines {

class PessimisticAgent;

/// Shared bookkeeping for the pessimistic-logging run.
class PessimisticRuntime {
 public:
  explicit PessimisticRuntime(const config::RunSpec& spec);

  proto::AgentFactory factory();
  const config::RunSpec& spec() const { return spec_; }
  const std::vector<PessimisticAgent*>& agents() const { return agents_; }

 private:
  friend class PessimisticAgent;
  config::RunSpec spec_;
  std::vector<PessimisticAgent*> agents_;
};

/// Per-node pessimistic-logging agent.
class PessimisticAgent final : public proto::AgentBase {
 public:
  PessimisticAgent(const proto::AgentContext& ctx, PessimisticRuntime& rt);

  void start() override;
  void app_send(NodeId dst, std::uint64_t bytes, std::uint64_t app_seq) override;
  void on_message(const net::Envelope& env) override;
  void on_failure_detected(NodeId failed) override;

 private:
  /// Copy of a delivered message persisted at the channel memory.
  struct LogCopy final : net::ControlPayload {
    static constexpr std::uint32_t kKind = 30;
    LogCopy() : ControlPayload(kKind) {}
    // Only the modelled bytes matter; the original stays at the receiver.
  };

  void take_checkpoint();
  void restore_failed_node();

  PessimisticRuntime& rt_;
  // Pre-resolved stats handles (per-message paths; see AgentBase::named_stat).
  stats::Counter* stat_clc_total_{nullptr};
  stats::Counter* stat_node_ckpts_{nullptr};
  stats::Counter* stat_dup_dropped_{nullptr};
  stats::Counter* stat_log_copies_{nullptr};
  stats::Counter* stat_replayed_{nullptr};
  proto::AppSnapshot checkpoint_;
  std::uint64_t checkpoint_mark_{0};
  std::vector<net::Envelope> receive_log_;  ///< deliveries since checkpoint
  // lint: unordered-ok(membership-only duplicate filter; counters count
  // drops as they happen, nothing ever iterates the set)
  std::unordered_set<std::uint64_t> dedup_; ///< all-time delivered app_seqs
  std::unique_ptr<sim::Timer> timer_;
};

}  // namespace hc3i::baselines
