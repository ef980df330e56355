#include "driver/run.hpp"

#include "baselines/global.hpp"
#include "baselines/independent.hpp"
#include "baselines/pessimistic.hpp"
#include "driver/consistency.hpp"
#include "fault/engine.hpp"
#include "fed/federation.hpp"
#include "hc3i/agent.hpp"
#include "obs/sampler.hpp"

namespace hc3i::driver {

std::string to_string(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kHc3i:
      return "HC3I";
    case ProtocolKind::kIndependent:
      return "independent";
    case ProtocolKind::kCoordinatedGlobal:
      return "coordinated-global";
    case ProtocolKind::kPessimisticLog:
      return "pessimistic-log";
    case ProtocolKind::kHierarchicalCoordinated:
      return "hierarchical-coordinated";
  }
  HC3I_UNREACHABLE("bad ProtocolKind");
}

std::optional<ProtocolKind> parse_protocol(std::string_view name) {
  if (name == "hc3i") return ProtocolKind::kHc3i;
  if (name == "independent") return ProtocolKind::kIndependent;
  if (name == "coordinated-global") return ProtocolKind::kCoordinatedGlobal;
  if (name == "pessimistic-log") return ProtocolKind::kPessimisticLog;
  if (name == "hierarchical-coordinated") {
    return ProtocolKind::kHierarchicalCoordinated;
  }
  return std::nullopt;
}

std::uint64_t RunResult::clc_forced(ClusterId c) const {
  return registry.get("clc.forced.c" + std::to_string(c.v));
}

std::uint64_t RunResult::clc_unforced(ClusterId c) const {
  return registry.get("clc.unforced.c" + std::to_string(c.v));
}

std::uint64_t RunResult::clc_total(ClusterId c) const {
  return registry.get("clc.total.c" + std::to_string(c.v));
}

std::uint64_t RunResult::app_messages(ClusterId from, ClusterId to) const {
  return registry.get("net.app.pair." + std::to_string(from.v) + "." +
                      std::to_string(to.v));
}

RunResult run_simulation(const RunOptions& opts) {
  SimContext ctx;  // run-scoped: pools are built and torn down with the run
  return run_simulation(opts, ctx);
}

RunResult run_simulation(const RunOptions& opts, SimContext& ctx) {
  // Everything below allocates control payloads through the context's
  // arena; the scope must enclose the whole stack (network, federation,
  // runtimes) so releases during their teardown still see the same arena.
  proto::ScopedPayloadArena payload_scope(ctx.arena());

  RunOptions o = opts;
  o.spec.validate();
  if (o.protocol == ProtocolKind::kPessimisticLog) {
    // Message logging needs the PWD assumption (paper §2.2 / §6).
    o.replay = app::ReplayMode::kDeterministic;
  }
  if (o.protocol == ProtocolKind::kIndependent) {
    // The GC bound of §3.5 assumes the forcing rule; see independent.hpp.
    o.spec.timers.gc_period = SimTime::infinity();
  }

  sim::Simulation sim(o.seed);
  stats::Registry registry;
  fed::Federation fed(sim, o.spec, registry);

  // Observability: one Recording per run when enabled.  The recorder must
  // be installed before build_agents (agents capture the pointer in their
  // context); the sampler rides the ordinary event queue, so its ticks are
  // part of the deterministic schedule.
  std::shared_ptr<obs::Recording> recording;
  if (o.trace || o.metrics_interval != SimTime::zero()) {
    recording = std::make_shared<obs::Recording>();
    recording->metrics_interval = o.metrics_interval;
    if (o.trace) fed.set_recorder(&recording->recorder);
  }

  app::Workload workload(sim, fed.topology(), o.spec.application, registry,
                         o.replay);

  // Protocol-specific runtimes; only the selected one is constructed.
  std::unique_ptr<core::Hc3iRuntime> hc3i_rt;
  std::unique_ptr<baselines::GlobalRuntime> global_rt;
  std::unique_ptr<baselines::PessimisticRuntime> pess_rt;
  proto::AgentFactory factory;
  switch (o.protocol) {
    case ProtocolKind::kHc3i:
      hc3i_rt = std::make_unique<core::Hc3iRuntime>(o.spec, o.hc3i);
      factory = hc3i_rt->factory();
      break;
    case ProtocolKind::kIndependent:
      hc3i_rt = std::make_unique<core::Hc3iRuntime>(o.spec, o.hc3i);
      factory = baselines::independent_factory(*hc3i_rt);
      break;
    case ProtocolKind::kCoordinatedGlobal:
      global_rt = std::make_unique<baselines::GlobalRuntime>(
          o.spec, /*hierarchical=*/false);
      factory = global_rt->factory();
      break;
    case ProtocolKind::kHierarchicalCoordinated:
      global_rt = std::make_unique<baselines::GlobalRuntime>(
          o.spec, /*hierarchical=*/true);
      factory = global_rt->factory();
      break;
    case ProtocolKind::kPessimisticLog:
      pess_rt = std::make_unique<baselines::PessimisticRuntime>(o.spec);
      factory = pess_rt->factory();
      break;
  }

  fed.build_agents(factory, workload.handles());
  workload.bind_agents([&fed](NodeId n) { return &fed.agent(n); });
  fed.start();
  workload.start();

  const SimTime horizon = o.spec.application.total_time;
  SimTime failure_bound = horizon;
  if (o.protocol == ProtocolKind::kPessimisticLog) {
    // Message-logging recovery re-executes the victim's lost work in
    // simulated time (up to one checkpoint period).  A failure without
    // enough runway before the horizon leaves the replay unfinished and
    // the victim's pre-failure sends would validate as ghosts, so every
    // injector quiesces early (documented in baselines/pessimistic.hpp).
    // The campaign engine enforces the same bound on scripted kills: a
    // script landing inside the margin is rejected with a CheckFailure
    // instead of producing ghost-send violations blamed on the protocol.
    SimTime max_period = SimTime::zero();
    for (const auto& t : o.spec.timers.clusters) {
      if (!t.clc_period.is_infinite()) {
        max_period = std::max(max_period, t.clc_period);
      }
    }
    const SimTime margin = max_period + minutes(10);
    failure_bound = horizon > margin ? horizon - margin : SimTime::zero();
  }

  // Fold the legacy fields into the campaign (shims: same semantics, same
  // RNG streams, byte-identical runs).  auto_failures becomes stream index
  // 0 — the slot whose derived RNG id matches the pre-campaign injector —
  // and scripted failures become front-of-list one-shot kills.
  fault::Campaign plan = o.campaign;
  if (o.auto_failures && !o.spec.topology.mtbf.is_infinite()) {
    fault::StreamSpec mtbf_stream;
    mtbf_stream.mtbf = o.spec.topology.mtbf;
    mtbf_stream.stop = failure_bound;
    plan.streams.insert(plan.streams.begin(), mtbf_stream);
  }
  if (!o.scripted_failures.empty()) {
    std::vector<fault::KillSpec> legacy;
    legacy.reserve(o.scripted_failures.size());
    for (const ScriptedFailure& f : o.scripted_failures) {
      legacy.push_back(fault::KillSpec{f.at, f.victim});
    }
    plan.kills.insert(plan.kills.begin(), legacy.begin(), legacy.end());
  }
  std::unique_ptr<fault::CampaignEngine> engine;
  if (!plan.empty()) {
    engine = std::make_unique<fault::CampaignEngine>(
        fed, hc3i_rt.get(), std::move(plan), failure_bound);
    engine->arm();
  }

  std::unique_ptr<obs::MetricsSampler> sampler;
  if (recording && o.metrics_interval != SimTime::zero()) {
    sampler = std::make_unique<obs::MetricsSampler>(
        sim, registry, fed.network(), o.metrics_interval);
    sampler->arm(horizon + o.drain);
  }

  sim.run_until(horizon + o.drain);
  if (engine) engine->finalize();

  RunResult result;
  result.violations = fed.ledger().validate(/*allow_in_flight=*/false);
  if (hc3i_rt) {
    append_cluster_agreement_violations(
        *hc3i_rt, result.violations,
        /*expect_ddv_agreement=*/o.protocol == ProtocolKind::kHc3i);
    result.gc_events = hc3i_rt->gc_events();
    for (std::size_t c = 0; c < hc3i_rt->cluster_count(); ++c) {
      registry.set("store.final_clcs.c" + std::to_string(c),
                   hc3i_rt->store(ClusterId{static_cast<std::uint32_t>(c)})
                       .size());
    }
  }
  registry.set("ledger.undone_events", fed.ledger().undone_events());
  registry.set("ledger.total_events", fed.ledger().total_events());
  if (engine) {
    result.fault_summary = engine->telemetry().summary();
    result.recovery_latency_us = engine->telemetry().latency_histogram();
    result.incidents = engine->telemetry().take_incidents();
  }
  if (recording) {
    if (sampler) recording->samples = sampler->take_samples();
    result.obs = std::move(recording);
  }
  result.registry = registry;
  result.end_time = sim.now();
  result.events_executed = sim.events_executed();
  result.total_progress = workload.total_progress();
  result.total_received = workload.total_received();

  if (o.validate && !result.violations.empty()) {
    std::string all = "consistency violations (" + to_string(o.protocol) +
                      ", seed " + std::to_string(o.seed) + "):";
    const std::size_t show = std::min<std::size_t>(result.violations.size(), 8);
    for (std::size_t i = 0; i < show; ++i) {
      all += "\n  " + result.violations[i];
    }
    if (result.violations.size() > show) {
      all += "\n  ... and " +
             std::to_string(result.violations.size() - show) + " more";
    }
    throw CheckFailure(all);
  }
  return result;
}

}  // namespace hc3i::driver
