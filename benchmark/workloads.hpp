#pragma once

// The benchmark's workloads, and its own copy of the run assembly.
//
// End-to-end numbers come from driver::run_simulation and batch::Runner, the
// entry points users call.  What needs to look inside a run — set-up time,
// the traced pass's timing decorators, the kernels' harvest of retained
// checkpoints — goes through assemble() instead, which builds the same stack
// from public constructors in driver/run.cpp's order.  The traced pass checks
// that both paths give byte-identical counter dumps, so this copy cannot
// drift from the driver unnoticed.

#include <cstdint>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "batch/sweep.hpp"
#include "driver/run.hpp"
#include "hc3i/runtime.hpp"
#include "proto/agent.hpp"
#include "proto/snapshot.hpp"

namespace hc3i::bench {

/// The four workloads (benchmark/README.md gives the reason for each).
enum class Workload { kSteady, kFaulty, kStorageTraced, kWideSweep };

const char* workload_name(Workload w);
std::optional<Workload> parse_workload(std::string_view name);

/// Options of one run of a single-run workload (any but kWideSweep).
driver::RunOptions run_options(Workload w, std::uint64_t seed);

/// The kWideSweep grid: `seeds` under both campaigns, grid order.  A batch
/// takes two seeds: four runs on two threads balance, each worker claiming
/// one failure-free and one overlap run.
std::vector<batch::RunCase> wide_cases(const std::vector<std::uint64_t>& seeds);

/// True when every run also renders obs::trace_json and obs::metrics_tsv.
bool exports_obs(Workload w);

/// A host-time interval in util::now_sec() seconds.
struct Span {
  const char* name;
  double start;
  double end;
};

/// Optional interposition points of assemble().
struct Hooks {
  /// Replaces the runtime's agent factory (the traced pass's decorator).
  std::function<proto::AgentFactory(proto::AgentFactory)> wrap_factory;
  /// Replaces the workload's AppHandles; the replacements must outlive the
  /// assemble() call.
  std::function<std::vector<proto::AppHandle*>(
      const std::vector<proto::AppHandle*>&)>
      wrap_apps;
  /// Sees the runtime after the audit, before teardown (kernel harvests).
  std::function<void(const core::Hc3iRuntime&)> inspect;
};

struct Assembled {
  driver::RunResult result;
  /// validate, fed.construct, app.workload, hc3i.runtime, fed.build_agents,
  /// fed.start, fault.arm (campaign runs only), then loop and audit.
  std::vector<Span> phases;
  /// From RunSpec::validate to the start of the event loop.
  double setup_s{0.0};
};

/// Build, run and audit one HC3I run exactly as driver::run_simulation does
/// (legacy failure shims unsupported).  With `setup_only` the stack is torn
/// down right after set-up and the result holds only the phases.
Assembled assemble(const driver::RunOptions& opts, const Hooks& hooks = {},
                   bool setup_only = false);

}  // namespace hc3i::bench
