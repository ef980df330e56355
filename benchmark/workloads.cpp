#include "workloads.hpp"

#include <memory>

#include "config/presets.hpp"
#include "driver/consistency.hpp"
#include "fault/engine.hpp"
#include "fed/federation.hpp"
#include "obs/sampler.hpp"
#include "util/check.hpp"
#include "util/walltime.hpp"

namespace hc3i::bench {

namespace {

constexpr std::size_t kClusters = 10;
constexpr std::uint32_t kNodes = 100;

}  // namespace

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kSteady:
      return "steady";
    case Workload::kFaulty:
      return "faulty";
    case Workload::kStorageTraced:
      return "storage_traced";
    case Workload::kWideSweep:
      return "wide_sweep";
  }
  HC3I_UNREACHABLE("bad Workload");
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : {Workload::kSteady, Workload::kFaulty,
                           Workload::kStorageTraced, Workload::kWideSweep}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

driver::RunOptions run_options(Workload w, std::uint64_t seed) {
  HC3I_CHECK(w != Workload::kWideSweep, "wide_sweep runs through batch cases");
  const SimTime total = minutes(30);
  driver::RunOptions opts;
  opts.spec = config::scale_federation_spec(kClusters, kNodes, total);
  opts.seed = seed;
  switch (w) {
    case Workload::kSteady:
      break;
    case Workload::kFaulty:
      // The overlap campaign alone: heavier fault loads hit the simulator's
      // rollback-cascade livelock on about one seed in eight
      // (benchmark/README.md, "Known runaway").
      opts.campaign =
          fault::reference_overlap_campaign(kClusters, kNodes, total);
      break;
    case Workload::kStorageTraced: {
      // The bench/golden_counters_scale_storage.txt configuration, plus the
      // structured trace and the metrics sampler.
      config::StorageSpec storage;
      storage.kind = config::StorageSpec::Kind::kStripedRemote;
      for (config::ClusterSpec& c : opts.spec.topology.clusters) {
        c.storage = storage;
      }
      opts.campaign =
          fault::reference_overlap_campaign(kClusters, kNodes, total);
      opts.trace = true;
      opts.metrics_interval = seconds(10);
      break;
    }
    case Workload::kWideSweep:
      break;
  }
  return opts;
}

std::vector<batch::RunCase> wide_cases(
    const std::vector<std::uint64_t>& seeds) {
  batch::SweepSpec sweep;
  sweep.topologies.push_back(batch::scale_topology(100, kNodes, minutes(5)));
  sweep.campaigns = {batch::no_campaign(), batch::overlap_campaign()};
  sweep.seeds = seeds;
  return batch::expand(sweep);
}

bool exports_obs(Workload w) { return w == Workload::kStorageTraced; }

Assembled assemble(const driver::RunOptions& opts, const Hooks& hooks,
                   bool setup_only) {
  HC3I_CHECK(opts.protocol == driver::ProtocolKind::kHc3i &&
                 !opts.auto_failures && opts.scripted_failures.empty(),
             "assemble: HC3I runs with campaign-only fault plans");
  Assembled out;
  double mark = util::now_sec();
  const double setup_start = mark;
  const auto phase = [&out, &mark](const char* name) {
    const double now = util::now_sec();
    out.phases.push_back(Span{name, mark, now});
    mark = now;
  };

  // From here on, driver/run.cpp's statements in its order: the locals'
  // destruction order (and so the payload arena's lifetime) is the same.
  driver::SimContext ctx;
  proto::ScopedPayloadArena payload_scope(ctx.arena());

  driver::RunOptions o = opts;
  o.spec.validate();
  phase("validate");

  sim::Simulation sim(o.seed);
  stats::Registry registry;
  fed::Federation fed(sim, o.spec, registry);

  std::shared_ptr<obs::Recording> recording;
  if (o.trace || o.metrics_interval != SimTime::zero()) {
    recording = std::make_shared<obs::Recording>();
    recording->metrics_interval = o.metrics_interval;
    if (o.trace) fed.set_recorder(&recording->recorder);
  }
  phase("fed.construct");

  app::Workload workload(sim, fed.topology(), o.spec.application, registry,
                         o.replay);
  phase("app.workload");

  auto hc3i_rt = std::make_unique<core::Hc3iRuntime>(o.spec, o.hc3i);
  proto::AgentFactory factory = hc3i_rt->factory();
  if (hooks.wrap_factory) factory = hooks.wrap_factory(std::move(factory));
  phase("hc3i.runtime");

  std::vector<proto::AppHandle*> apps = workload.handles();
  if (hooks.wrap_apps) apps = hooks.wrap_apps(apps);
  fed.build_agents(factory, apps);
  workload.bind_agents([&fed](NodeId n) { return &fed.agent(n); });
  phase("fed.build_agents");

  fed.start();
  workload.start();
  phase("fed.start");

  const SimTime horizon = o.spec.application.total_time;
  std::unique_ptr<fault::CampaignEngine> engine;
  if (!o.campaign.empty()) {
    engine = std::make_unique<fault::CampaignEngine>(fed, hc3i_rt.get(),
                                                     o.campaign, horizon);
    engine->arm();
    phase("fault.arm");
  }

  std::unique_ptr<obs::MetricsSampler> sampler;
  if (recording && o.metrics_interval != SimTime::zero()) {
    sampler = std::make_unique<obs::MetricsSampler>(
        sim, registry, fed.network(), o.metrics_interval);
    sampler->arm(horizon + o.drain);
  }
  out.setup_s = util::now_sec() - setup_start;
  if (setup_only) return out;

  mark = util::now_sec();
  sim.run_until(horizon + o.drain);
  if (engine) engine->finalize();
  phase("loop");

  driver::RunResult& result = out.result;
  result.violations = fed.ledger().validate(/*allow_in_flight=*/false);
  driver::append_cluster_agreement_violations(*hc3i_rt, result.violations,
                                              /*expect_ddv_agreement=*/true);
  phase("audit");

  result.gc_events = hc3i_rt->gc_events();
  for (std::size_t c = 0; c < hc3i_rt->cluster_count(); ++c) {
    registry.set("store.final_clcs.c" + std::to_string(c),
                 hc3i_rt->store(ClusterId{static_cast<std::uint32_t>(c)})
                     .size());
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
  if (hooks.inspect) hooks.inspect(*hc3i_rt);

  HC3I_CHECK(!o.validate || result.violations.empty(),
             "consistency violations (" + std::to_string(
                 result.violations.size()) + ", seed " +
                 std::to_string(o.seed) + "): " +
                 (result.violations.empty() ? "" : result.violations[0]));
  return out;
}

}  // namespace hc3i::bench
