#pragma once

// Independent-checkpointing baseline: HC3I with the communication-induced
// forcing rule removed.
//
// The paper argues (§2.2) that a purely independent mechanism "does not fit
// either: tracking dependencies to compute the recovery line at rollback
// time would be very hard and nodes may rollback to very old checkpoints
// (domino effect)".  This baseline quantifies that claim: clusters still
// checkpoint with the intra-cluster 2PC on their timers, and inter-cluster
// messages still piggyback the sender SN, but no CLC is ever forced — the
// DDV entry is raised lazily at delivery time instead.  On a failure, the
// alert cascade must therefore fall back to the *newest* CLC that does NOT
// depend on the undone epoch, which can cascade all the way to the initial
// checkpoints (the domino effect the ablation bench measures).
//
// Garbage collection is unsupported (the recovery-line bound of paper §3.5
// relies on DDVs only changing at commits); the driver enforces that.

#include <algorithm>

#include "hc3i/agent.hpp"

namespace hc3i::baselines {

/// HC3I minus forcing; see file comment.
class IndependentAgent final : public core::Hc3iAgent {
 public:
  using core::Hc3iAgent::Hc3iAgent;

 protected:
  bool cic_should_force(const net::Envelope&) const override { return false; }

  void on_inter_delivered(const net::Envelope& env) override {
    // Lazy dependency tracking: the delivery itself raises the local DDV
    // entry; the cluster DDV is the per-node max, merged at commit.
    ddv_.raise(env.src_cluster, env.piggy.sn);
  }

  const proto::ClcRecord* rollback_target(
      ClusterId f, SeqNum restored_sn) const override {
    // Per-node DDVs diverge between commits, so the cluster-wide test
    // needs the max over nodes (a real implementation would gather this
    // with an intra-cluster query; the simulator reads it directly).  As
    // under HC3I, an alert naming SN 0 only replays logged messages.
    const auto& nodes = rt_.cluster_agents(cluster());
    if (restored_sn == 0 ||
        std::none_of(nodes.begin(), nodes.end(), [&](const Hc3iAgent* a) {
          return a->ddv().at(f) >= restored_sn;
        })) {
      return nullptr;
    }
    // Without forcing, a CLC whose entry for f is >= restored_sn may
    // *contain* undone deliveries, so the only safe target is the newest
    // CLC that provably precedes them: ddv[f] < restored_sn.
    const proto::ClcRecord* best = nullptr;
    for (const proto::ClcRecord& rec : rt_.store(cluster()).records()) {
      if (rec.ddv.at(f) < restored_sn) best = &rec;
    }
    HC3I_CHECK(best != nullptr,  // the initial CLC has ddv[f] == 0
               "no rollback target: no CLC precedes the undone epoch");
    return best;
  }
};

/// Factory for Federation::build_agents.
proto::AgentFactory independent_factory(core::Hc3iRuntime& rt);

}  // namespace hc3i::baselines
