#include "hc3i/runtime.hpp"

#include <utility>

#include "hc3i/agent.hpp"

namespace hc3i::core {

Hc3iRuntime::Hc3iRuntime(const config::RunSpec& spec, Hc3iOptions opts)
    : spec_(spec), opts_(opts) {
  spec_.validate();
  const std::size_t n = spec_.topology.cluster_count();
  incarnations_.assign(n, 0);
  agents_.resize(n);
  log_tallies_.resize(n);
  stores_.reserve(n);
  for (std::size_t c = 0; c < n; ++c) {
    const std::uint32_t nodes = spec_.topology.clusters[c].nodes;
    // The replication degree cannot exceed the number of neighbour nodes.
    const std::uint32_t repl =
        nodes > 1 ? std::min(opts_.replication, nodes - 1) : 0;
    stores_.push_back(std::make_unique<proto::ClcStore>(
        ClusterId{static_cast<std::uint32_t>(c)}, nodes, repl));
    backends_.push_back(
        storage::make_backend(spec_.topology.clusters[c].storage, nodes));
    agents_[c].reserve(nodes);
  }
}

proto::AgentFactory Hc3iRuntime::factory() {
  return [this](const proto::AgentContext& ctx) {
    auto agent = std::make_unique<Hc3iAgent>(ctx, *this);
    register_agent(ctx.cluster, agent.get());
    return agent;
  };
}

void Hc3iRuntime::register_agent(ClusterId c, Hc3iAgent* agent) {
  HC3I_CHECK(c.v < agents_.size(), "register_agent: bad cluster");
  HC3I_CHECK(agent != nullptr, "register_agent: null agent");
  agents_[c.v].push_back(agent);
}

proto::ClcStore& Hc3iRuntime::store(ClusterId c) {
  HC3I_CHECK(c.v < stores_.size(), "store: bad cluster");
  return *stores_[c.v];
}

const proto::ClcStore& Hc3iRuntime::store(ClusterId c) const {
  HC3I_CHECK(c.v < stores_.size(), "store: bad cluster");
  return *stores_[c.v];
}

Incarnation Hc3iRuntime::incarnation(ClusterId c) const {
  HC3I_CHECK(c.v < incarnations_.size(), "incarnation: bad cluster");
  return incarnations_[c.v];
}

Incarnation Hc3iRuntime::bump_incarnation(ClusterId c) {
  HC3I_CHECK(c.v < incarnations_.size(), "bump_incarnation: bad cluster");
  return ++incarnations_[c.v];
}

std::uint64_t Hc3iRuntime::fed_rollback_epoch() const {
  std::uint64_t sum = 0;
  for (const Incarnation i : incarnations_) sum += i;
  return sum;
}

const std::vector<Hc3iAgent*>& Hc3iRuntime::cluster_agents(ClusterId c) const {
  HC3I_CHECK(c.v < agents_.size(), "cluster_agents: bad cluster");
  return agents_[c.v];
}

void Hc3iRuntime::record_gc(SimTime t, ClusterId c, std::size_t before,
                            std::size_t after) {
  gc_events_.push_back(GcEvent{t, c, before, after});
}

}  // namespace hc3i::core
