#pragma once

// Federation assembly: topology + network + ledger + one protocol agent per
// node, plus fail-stop failure injection.
//
// Construction is two-phase because the application layer and the protocol
// layer point at each other (the app sends through its agent; the agent
// snapshots/restores/delivers through its AppHandle):
//
//   Federation fed(sim, spec, registry);
//   <workload constructs one AppHandle per node>
//   fed.build_agents(factory, app_handles);
//   <workload learns its agents>
//   fed.start();
//
// Failure model: fail-stop, at most one fault in flight *per cluster* (the
// paper's §2.1 "one fault at a time" read cluster-locally — the hierarchy
// exists precisely so that independent cluster failures recover
// independently).  The federation alone tracks each cluster's fault
// lifecycle, in three phases:
//
//   injected  inject_failure(): the victim stops receiving;
//   detected  after the detection delay, just before the coordinator (first
//             up node) of its cluster gets on_failure_detected();
//   complete  recovery_complete(c), which protocols signal through
//             AgentContext::recovery_done whenever cluster c resumes at its
//             latest incarnation; it completes only a *detected* fault and
//             is a no-op otherwise.
//
// The victim is restored from its neighbour's stable-storage replica after
// a state transfer delay.  Injection policy lives outside: the
// fault-campaign engine (src/fault/engine.hpp) decides *when* and *whom* to
// kill, calls inject_failure(), and observes each completion — which
// reports *which* cluster finished — through the recovery listener to queue
// same-cluster kills and to time recoveries.

#include <functional>
#include <memory>
#include <vector>

#include "config/spec.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "obs/trace.hpp"
#include "proto/agent.hpp"
#include "proto/ledger.hpp"
#include "sim/simulation.hpp"
#include "stats/registry.hpp"

namespace hc3i::fed {

/// The assembled cluster federation.
class Federation {
 public:
  Federation(sim::Simulation& sim, config::RunSpec spec,
             stats::Registry& registry);

  Federation(const Federation&) = delete;
  Federation& operator=(const Federation&) = delete;

  /// Build one agent per node. `apps[n]` is the AppHandle of node n and
  /// must outlive the federation.
  void build_agents(const proto::AgentFactory& factory,
                    const std::vector<proto::AppHandle*>& apps);

  /// Start every agent (arm timers, take initial checkpoints).
  void start();

  /// Inject one failure at the current simulated time (the campaign engine
  /// and scenario tests drive this directly).
  void inject_failure(NodeId victim);

  /// Protocol signal: cluster `c` resumed at its latest incarnation.
  /// Completes `c`'s fault if it was detected (emitting kRecoveryEnd and
  /// `fault.recovery_complete`); a no-op otherwise.
  void recovery_complete(ClusterId c);

  /// Install a callback invoked on every completed recovery (the campaign
  /// engine retries deferred injections and stamps telemetry from it).
  void set_recovery_listener(std::function<void(ClusterId)> listener) {
    recovery_listener_ = std::move(listener);
  }

  /// Install the structured-trace recorder (driver-owned; null = off).
  /// Must be called before build_agents so agents capture the pointer.
  void set_recorder(obs::Recorder* rec) { recorder_ = rec; }
  /// The installed recorder (null when observability is off); the campaign
  /// engine emits its injection-source records through this.
  obs::Recorder* recorder() const { return recorder_; }

  /// Accessors.
  proto::ProtocolAgent& agent(NodeId n);
  const net::Topology& topology() const { return topo_; }
  net::Network& network() { return network_; }
  proto::ConsistencyLedger& ledger() { return ledger_; }
  stats::Registry& registry() { return registry_; }
  const config::RunSpec& spec() const { return spec_; }
  sim::Simulation& simulation() { return sim_; }

  /// First up node of a cluster (the failure detector's notification
  /// target). Throws if the whole cluster is down.
  NodeId coordinator(ClusterId c) const;

  /// True while cluster `c`'s own fault is injected or detected.
  bool recovery_pending(ClusterId c) const {
    return fault_phase_[c.v] != FaultPhase::kNone;
  }

 private:
  enum class FaultPhase : std::uint8_t { kNone, kInjected, kDetected };

  sim::Simulation& sim_;
  config::RunSpec spec_;
  stats::Registry& registry_;
  net::Topology topo_;
  net::Network network_;
  proto::ConsistencyLedger ledger_;
  std::vector<std::unique_ptr<proto::ProtocolAgent>> agents_;
  obs::Recorder* recorder_{nullptr};
  std::function<void(ClusterId)> recovery_listener_;
  std::vector<FaultPhase> fault_phase_;  ///< per cluster
};

}  // namespace hc3i::fed
