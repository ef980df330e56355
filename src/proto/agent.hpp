#pragma once

// Protocol-agent interface — the "system-level module" of the paper's system
// model (Fig. 2): it intercepts every application send, receives from the
// network, and talks to peer agents for protocol needs.  One agent instance
// runs per node; the concrete subclass decides the checkpointing strategy
// (HC3I, the baselines, or a null protocol for calibration runs).

#include <cstdint>
#include <functional>
#include <memory>

#include "net/message.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "obs/trace.hpp"
#include "proto/ledger.hpp"
#include "proto/snapshot.hpp"
#include "sim/simulation.hpp"
#include "stats/registry.hpp"

namespace hc3i::proto {

/// Everything an agent needs from its environment, wired by the federation.
struct AgentContext {
  sim::Simulation* sim{nullptr};
  net::Network* network{nullptr};
  const net::Topology* topology{nullptr};
  stats::Registry* registry{nullptr};
  ConsistencyLedger* ledger{nullptr};
  NodeId self{};
  ClusterId cluster{};
  AppHandle* app{nullptr};  ///< the local process (owned by the workload)
  /// Structured trace recorder; null when observability is off (the common
  /// case — every emission site is then a single pointer test, HC3I_OBS).
  obs::Recorder* obs{nullptr};
  /// Signals that a cluster resumed at its latest incarnation.  Protocols
  /// call it on every such resume, whatever caused the rollback; the
  /// federation completes the cluster's fault only if one was detected
  /// (Federation::recovery_complete), which is how the paper's
  /// one-fault-at-a-time assumption is honoured per cluster.
  std::function<void(ClusterId)> recovery_done;
};

/// Abstract checkpointing agent.
class ProtocolAgent {
 public:
  explicit ProtocolAgent(AgentContext ctx) : ctx_(std::move(ctx)) {}
  virtual ~ProtocolAgent() = default;

  ProtocolAgent(const ProtocolAgent&) = delete;
  ProtocolAgent& operator=(const ProtocolAgent&) = delete;

  /// Called once at simulation start: arm timers, take the initial
  /// checkpoint (the paper's execution starts with a CLC on every cluster).
  virtual void start() = 0;

  /// Application send interception: the local process wants `bytes` sent to
  /// `dst` as logical message `app_seq`.  The agent may queue it (during a
  /// 2PC round), piggy-back protocol data, and log it.
  virtual void app_send(NodeId dst, std::uint64_t bytes,
                        std::uint64_t app_seq) = 0;

  /// Network upcall: an envelope addressed to this node arrived.
  virtual void on_message(const net::Envelope& env) = 0;

  /// Failure-detector upcall, delivered to the coordinator (first alive
  /// node) of the failed node's cluster, detection latency already applied.
  virtual void on_failure_detected(NodeId failed) = 0;

  /// Identity helpers.
  NodeId self() const { return ctx_.self; }
  ClusterId cluster() const { return ctx_.cluster; }

 protected:
  AgentContext ctx_;
};

/// Factory: builds the agent for one node. The protocol module supplies it
/// to the federation builder.
using AgentFactory =
    std::function<std::unique_ptr<ProtocolAgent>(const AgentContext&)>;

}  // namespace hc3i::proto
