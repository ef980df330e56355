#include "fed/federation.hpp"

namespace hc3i::fed {

Federation::Federation(sim::Simulation& sim, config::RunSpec spec,
                       stats::Registry& registry)
    : sim_(sim),
      spec_(std::move(spec)),
      registry_(registry),
      topo_((spec_.validate(), spec_.topology)),
      network_(sim, topo_, registry),
      fault_phase_(topo_.cluster_count(), FaultPhase::kNone) {}

void Federation::build_agents(const proto::AgentFactory& factory,
                              const std::vector<proto::AppHandle*>& apps) {
  HC3I_CHECK(agents_.empty(), "build_agents called twice");
  HC3I_CHECK(apps.size() == topo_.node_count(),
             "build_agents: need one AppHandle per node");
  agents_.reserve(topo_.node_count());
  for (std::uint32_t i = 0; i < topo_.node_count(); ++i) {
    const NodeId n{i};
    proto::AgentContext ctx;
    ctx.sim = &sim_;
    ctx.network = &network_;
    ctx.topology = &topo_;
    ctx.registry = &registry_;
    ctx.ledger = &ledger_;
    ctx.self = n;
    ctx.cluster = topo_.cluster_of(n);
    ctx.app = apps[i];
    ctx.obs = recorder_;
    ctx.recovery_done = [this](ClusterId c) { recovery_complete(c); };
    agents_.push_back(factory(ctx));
    HC3I_CHECK(agents_.back() != nullptr, "agent factory returned null");
    proto::ProtocolAgent* agent = agents_.back().get();
    network_.attach(n, [agent](const net::Envelope& env) {
      agent->on_message(env);
    });
  }
}

void Federation::start() {
  HC3I_CHECK(!agents_.empty(), "start: build_agents first");
  for (auto& a : agents_) a->start();
}

proto::ProtocolAgent& Federation::agent(NodeId n) {
  HC3I_CHECK(n.v < agents_.size(), "agent: bad node id");
  return *agents_[n.v];
}

NodeId Federation::coordinator(ClusterId c) const {
  const NodeId base = topo_.first_node(c);
  for (std::uint32_t i = 0; i < topo_.cluster_size(c); ++i) {
    const NodeId n{base.v + i};
    if (network_.node_up(n)) return n;
  }
  HC3I_UNREACHABLE("coordinator: entire cluster " + std::to_string(c.v) +
                   " is down");
}

void Federation::inject_failure(NodeId victim) {
  HC3I_CHECK(victim.v < topo_.node_count(), "inject_failure: bad node");
  const ClusterId c = topo_.cluster_of(victim);
  HC3I_CHECK(!recovery_pending(c),
             "inject_failure: cluster " + std::to_string(c.v) +
                 "'s previous recovery is still pending (at most one fault "
                 "in flight per cluster)");
  HC3I_CHECK(network_.node_up(victim), "inject_failure: node already down");
  fault_phase_[c.v] = FaultPhase::kInjected;
  registry_.counter("fault.injected").inc();
  HC3I_OBS(recorder_, obs::RecordKind::kFailure, sim_.now(), c.v, victim.v, 0);
  network_.set_node_down(victim);

  const SimTime detect = spec_.timers.detection_delay;
  sim_.schedule_after(detect, [this, victim, c] {
    // Notify the surviving coordinator.
    const NodeId coord = coordinator(c);
    fault_phase_[c.v] = FaultPhase::kDetected;
    agent(coord).on_failure_detected(victim);
  });
  // The victim restarts from its neighbour's replica after the transfer.
  const SimTime restart = detect + config::state_transfer_time(spec_, c);
  sim_.schedule_after(restart, [this, victim, c] {
    network_.set_node_up(victim);
    registry_.counter("fault.node_restored").inc();
    HC3I_OBS(recorder_, obs::RecordKind::kNodeRestored, sim_.now(), c.v,
             victim.v, 0);
  });
}

void Federation::recovery_complete(ClusterId c) {
  if (fault_phase_[c.v] != FaultPhase::kDetected) return;
  fault_phase_[c.v] = FaultPhase::kNone;
  HC3I_OBS(recorder_, obs::RecordKind::kRecoveryEnd, sim_.now(), c.v, 0, 0);
  registry_.counter("fault.recovery_complete").inc();
  if (recovery_listener_) recovery_listener_(c);
}

}  // namespace hc3i::fed
