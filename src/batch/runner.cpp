#include "batch/runner.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <utility>

#include "driver/run.hpp"
#include "driver/sim_context.hpp"
#include "obs/export.hpp"
#include "stats/registry.hpp"
#include "util/walltime.hpp"

namespace hc3i::batch {

namespace {

using util::now_sec;

/// Execute one grid cell inside the worker's context.
CaseResult run_case(const RunCase& rc, driver::SimContext& ctx,
                    const RunnerOptions& ropts) {
  CaseResult cr;
  cr.index = rc.index;
  cr.topology = rc.topology;
  cr.campaign = rc.campaign;
  cr.storage = rc.storage;
  cr.seed = rc.seed;
  const double t0 = now_sec();
  try {
    driver::RunOptions opts = rc.options();
    // Violations become a failed CaseResult, not an exception: one sick
    // grid cell must not abort its worker's remaining runs.
    opts.validate = false;
    if (!ropts.obs_dir.empty()) {
      opts.trace = true;
      opts.metrics_interval = ropts.obs_metrics_interval;
    }
    const driver::RunResult result = driver::run_simulation(opts, ctx);
    if (!ropts.obs_dir.empty() && result.obs != nullptr) {
      // Disjoint per case (keyed by grid index), so workers never race on a
      // path no matter how the cursor interleaves.
      const std::string base =
          ropts.obs_dir + "/case" + std::to_string(rc.index);
      if (!obs::write_text_file(base + ".trace.json",
                                obs::trace_json(*result.obs))) {
        cr.error = "cannot write " + base + ".trace.json";
      }
      if (ropts.obs_metrics_interval != SimTime::zero() &&
          !obs::write_text_file(base + ".metrics.tsv",
                                obs::metrics_tsv(*result.obs))) {
        cr.error = "cannot write " + base + ".metrics.tsv";
      }
    }
    cr.events = result.events_executed;
    cr.violations = result.violations.size();
    for (std::size_t c = 0; c < rc.spec->topology.cluster_count(); ++c) {
      cr.clcs += result.clc_total(ClusterId{static_cast<std::uint32_t>(c)});
    }
    cr.faults = result.counter("fault.injected");
    cr.cost = fault::RecoveryCost::read(
        result.registry, result.counter("ledger.undone_events"));
    cr.recovery_latency_s = fault::latency_summary(result.incidents).mean();
    for (const std::string& name : result.registry.counter_names()) {
      if (name.starts_with("net.app.pair.")) ++cr.pairs;
      if (name.starts_with("store.max_clcs.")) {
        cr.max_clcs = std::max(cr.max_clcs, result.counter(name));
      }
      if (name.starts_with("gc.resp_bytes_saved.")) {
        cr.gc_saved_bytes += result.counter(name);
      }
    }
    std::string dump = result.registry.dump();
    cr.digest = stats::fnv1a(dump);
    if (ropts.keep_dumps) cr.dump = std::move(dump);
    cr.ok = cr.violations == 0 && cr.error.empty();
  } catch (const std::exception& e) {
    cr.ok = false;
    cr.error = e.what();
  }
  cr.wall_sec = now_sec() - t0;
  return cr;
}

}  // namespace

BatchReport Runner::run(const SweepSpec& sweep) const {
  return run(expand(sweep));
}

BatchReport Runner::run(const std::vector<RunCase>& cases) const {
  std::size_t threads = opts_.threads;
  if (threads == 0) {
    threads = std::thread::hardware_concurrency();
    if (threads == 0) threads = 1;
  }
  if (threads > cases.size() && !cases.empty()) threads = cases.size();
  if (threads == 0) threads = 1;

  BatchReport report;
  report.threads = threads;
  report.cases.resize(cases.size());
  report.workers.resize(threads);

  // Work distribution: a shared claim cursor, whole runs at a time.  Runs
  // vary in cost by orders of magnitude across topologies, so dynamic
  // claiming beats static striping; grid order still governs the report
  // because results land in their case's slot, not in completion order.
  std::atomic<std::size_t> next{0};
  const RunnerOptions& ropts = opts_;
  const double t0 = now_sec();

  const auto worker = [&](std::size_t widx) {
    // The whole point of the PR: this context — pools and all — is this
    // worker's alone, reused across every run it claims.
    driver::SimContext ctx;
    WorkerStats ws;
    const double w0 = now_sec();
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= cases.size()) break;
      report.cases[i] = run_case(cases[i], ctx, ropts);
      ++ws.runs;
    }
    ws.wall_sec = now_sec() - w0;
    ws.pool_reused = ctx.arena().reused_blocks();
    ws.pool_fresh = ctx.arena().fresh_blocks();
    report.workers[widx] = ws;
  };

  if (threads == 1) {
    // Degenerate shard count: run on the calling thread (same code path,
    // no scheduler in the loop — the solo-comparison baseline).
    worker(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w) {
      pool.emplace_back(worker, w);
    }
    for (std::thread& t : pool) t.join();
  }
  report.wall_sec = now_sec() - t0;
  return report;
}

}  // namespace hc3i::batch
