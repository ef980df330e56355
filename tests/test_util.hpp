#pragma once

// Shared test scaffolding.
//
// ScriptedApp is a minimal AppHandle whose sends are driven explicitly by
// the test ("node 3 sends to node 17 now"), giving scenario tests precise
// control over the message pattern — the unit-level complement to the
// random Workload used by the property suites.
//
// MiniWorld assembles a full stack (simulation, federation, agents, one
// ScriptedApp per node) for a given spec and protocol factory.
//
// expect_incident_rows_sum_to_run_cost is the recovery-telemetry sum check
// every campaign test shares.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>
#include <vector>

#include "baselines/independent.hpp"
#include "config/presets.hpp"
#include "driver/run.hpp"
#include "fault/telemetry.hpp"
#include "fed/federation.hpp"
#include "hc3i/agent.hpp"
#include "hc3i/runtime.hpp"
#include "proto/snapshot.hpp"
#include "sim/simulation.hpp"
#include "stats/registry.hpp"

namespace hc3i::testing {

/// Test-controlled application process.
class ScriptedApp final : public proto::AppHandle {
 public:
  proto::AppSnapshot snapshot() const override {
    proto::AppSnapshot snap;
    snap.progress = progress;
    snap.virtual_work = virtual_work;
    // Must match the spec's declared state size: the protocol checks every
    // captured part against it (regression: a fixture hardcoding 1024 here
    // silently mis-sized all storage accounting).
    snap.state_bytes = state_bytes;
    snap.delta_bytes = state_bytes;
    snap.opaque = delivered_count;
    return snap;
  }
  void freeze() override { frozen = true; }
  void restore(const proto::AppSnapshot& snap) override {
    frozen = false;
    progress = snap.progress;
    virtual_work = snap.virtual_work;
    delivered_count = snap.opaque;
    ++restore_count;
  }
  void deliver(const net::Envelope& env) override {
    ++delivered_count;
    delivered.push_back(env);
  }

  /// Advance the fake progress marker (simulates computation).
  void work() {
    ++progress;
    virtual_work += seconds(1);
  }

  std::uint64_t progress{0};
  SimTime virtual_work{};
  std::uint64_t state_bytes{1024};  ///< MiniWorld aligns this with the spec
  std::uint64_t delivered_count{0};
  std::vector<net::Envelope> delivered;  ///< every delivery ever (not state)
  bool frozen{false};
  int restore_count{0};
};

/// A fully wired mini federation with scripted apps.
class MiniWorld {
 public:
  /// `independent` swaps in the independent-checkpointing baseline agent
  /// (same runtime/stores, forcing rule disabled).
  MiniWorld(config::RunSpec spec, std::uint64_t seed,
            core::Hc3iOptions options = {}, bool independent = false)
      : sim(seed), spec_(std::move(spec)), fed(sim, spec_, registry) {
    // The GC bound assumes the forcing rule (baselines/independent.hpp).
    if (independent) spec_.timers.gc_period = SimTime::infinity();
    runtime = std::make_unique<core::Hc3iRuntime>(spec_, options);
    apps.reserve(fed.topology().node_count());
    for (std::uint32_t i = 0; i < fed.topology().node_count(); ++i) {
      apps.push_back(std::make_unique<ScriptedApp>());
      apps.back()->state_bytes = spec_.application.state_bytes;
    }
    std::vector<proto::AppHandle*> handles;
    for (auto& a : apps) handles.push_back(a.get());
    fed.build_agents(independent ? baselines::independent_factory(*runtime)
                                 : runtime->factory(),
                     handles);
    fed.start();
  }

  /// Let all pending protocol activity settle (bounded horizon).
  void settle(SimTime dt = seconds(30)) { sim.run_until(sim.now() + dt); }

  /// Issue one application send from `src` to `dst`; returns the app_seq.
  std::uint64_t send(NodeId src, NodeId dst, std::uint64_t bytes = 1024) {
    const std::uint64_t seq = next_seq_++;
    fed.agent(src).app_send(dst, bytes, seq);
    return seq;
  }

  core::Hc3iAgent& agent(NodeId n) {
    return *static_cast<core::Hc3iAgent*>(&fed.agent(n));
  }

  /// True when a delivery of `app_seq` reached `dst` (ever).
  bool delivered(NodeId dst, std::uint64_t app_seq) const {
    for (const auto& env : apps[dst.v]->delivered) {
      if (env.app_seq == app_seq) return true;
    }
    return false;
  }

  sim::Simulation sim;
  stats::Registry registry;
  config::RunSpec spec_;
  fed::Federation fed;
  std::unique_ptr<core::Hc3iRuntime> runtime;
  std::vector<std::unique_ptr<ScriptedApp>> apps;

 private:
  std::uint64_t next_seq_{1};
};

/// A spec with near-zero latencies disabled GC and no failures, sized
/// `clusters` x `nodes` — the default scenario-test substrate.
inline config::RunSpec tiny_spec(std::size_t clusters = 2,
                                 std::uint32_t nodes = 3) {
  config::RunSpec spec = config::small_test_spec(clusters, nodes);
  spec.application.state_bytes = 64 * 1024;
  // Effectively-never unforced CLCs: scenario tests drive everything.
  for (auto& c : spec.timers.clusters) c.clc_period = SimTime::infinity();
  return spec;
}

/// Incident rows plus the post-campaign residual tile the run, so their
/// costs sum to the end-of-run counters: every integer field exactly, lost
/// work within 1e-9 relative (the even split rounds).
inline void expect_incident_rows_sum_to_run_cost(
    const driver::RunResult& result) {
  ASSERT_TRUE(result.fault_summary.has_residual);
  fault::RecoveryCost sum = result.fault_summary.residual.cost;
  for (const fault::Incident& inc : result.incidents) sum += inc.cost;
  for (const fault::CostCount& f : fault::kCostCounts) {
    EXPECT_EQ(sum.*f.field, result.counter(f.counter)) << f.counter;
  }
  const double lost =
      result.registry.summary("rollback.lost_work_s").sum();
  EXPECT_LE(std::abs(sum.lost_work_s - lost), 1e-9 * std::abs(lost))
      << "rollback.lost_work_s: rows " << sum.lost_work_s << ", run "
      << lost;
}

}  // namespace hc3i::testing
