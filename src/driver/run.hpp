#pragma once

// One-call simulation driver.
//
// run_simulation() assembles the full stack (simulation kernel, topology,
// network, federation, protocol agents, workload), runs the configured
// scenario to its horizon plus a drain window, audits the consistency
// ledger, and returns every statistic the benches and tests consume.
// This is the paper's "Controller" thread (§5.1) in library form.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "config/spec.hpp"
#include "app/workload.hpp"
#include "driver/sim_context.hpp"
#include "fault/campaign.hpp"
#include "fault/telemetry.hpp"
#include "hc3i/options.hpp"
#include "hc3i/runtime.hpp"
#include "obs/recording.hpp"
#include "stats/accumulators.hpp"
#include "stats/registry.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace hc3i::driver {

/// Which checkpointing protocol to run.
enum class ProtocolKind {
  kHc3i,                     ///< the paper's protocol
  kIndependent,              ///< HC3I minus forcing (domino-prone baseline)
  kCoordinatedGlobal,        ///< federation-wide 2PC (paper §2.2 strawman)
  kPessimisticLog,           ///< MPICH-V-like message logging (paper §6)
  kHierarchicalCoordinated,  ///< two-level coordinated (paper §6, ref [9])
};

/// Human-readable protocol name.
std::string to_string(ProtocolKind kind);
/// Parse a protocol name: "hc3i" or a baseline name as to_string prints it
/// ("independent", "coordinated-global", "pessimistic-log",
/// "hierarchical-coordinated"); empty optional on unknown input.
std::optional<ProtocolKind> parse_protocol(std::string_view name);

/// A failure to inject at a fixed simulated time.  Legacy shim: folded into
/// the campaign as a `fault::KillSpec` at run time (same semantics, byte-
/// identical runs); new call sites should populate `RunOptions::campaign`.
struct ScriptedFailure {
  SimTime at{};
  NodeId victim{};
};

/// Everything that defines one simulation run.
struct RunOptions {
  config::RunSpec spec;
  std::uint64_t seed{1};
  ProtocolKind protocol{ProtocolKind::kHc3i};
  core::Hc3iOptions hc3i{};
  /// Declarative fault plan (scripted kills, MTBF streams, correlated
  /// bursts, repeat offenders, phase-targeted triggers); compiled by the
  /// fault::CampaignEngine, measured by fault::RecoveryTelemetry.
  fault::Campaign campaign;
  /// Legacy shim: inject random failures per the topology MTBF.  Folded
  /// into the campaign as a federation-wide `fault::StreamSpec` (same RNG
  /// stream, draw-for-draw identical to the pre-campaign injector).
  bool auto_failures{false};
  /// Legacy shim: deterministic failure script (see ScriptedFailure).
  std::vector<ScriptedFailure> scripted_failures;
  /// Extra simulated time after the application horizon for messages,
  /// forced CLCs and recoveries to settle before strict validation.
  SimTime drain{minutes(5)};
  app::ReplayMode replay{app::ReplayMode::kDivergent};
  /// Throw CheckFailure on any consistency violation (tests rely on it);
  /// when false, violations are only reported in the result.
  bool validate{true};
  /// Collect the structured protocol trace (obs::Recorder threaded through
  /// every agent; off = every emission site is one null-pointer test).
  bool trace{false};
  /// Sample the metrics time series every this much simulated time
  /// (zero = off).  Reads counters via Registry::get() only, so arming the
  /// sampler never adds rows to a counter dump.
  SimTime metrics_interval{SimTime::zero()};
};

/// Everything a run produces.
struct RunResult {
  stats::Registry registry;
  std::vector<core::GcEvent> gc_events;
  /// Per-injection recovery cost records (empty for failure-free runs);
  /// rendered as a table by driver/report.
  std::vector<fault::Incident> incidents;
  /// Residual (unattributed) cost row + concurrency high-water for the
  /// incident table; `has_residual` is false for failure-free runs.
  fault::CampaignSummary fault_summary;
  std::vector<std::string> violations;
  /// Recovery-latency distribution (us, completed recoveries): feeds the
  /// p50/p95/p99 columns the mean-only summaries cannot show.
  stats::Log2Histogram recovery_latency_us;
  /// Structured trace + metrics series; null unless RunOptions::trace or
  /// metrics_interval enabled the observability layer.
  std::shared_ptr<obs::Recording> obs;
  SimTime end_time{};
  std::uint64_t events_executed{0};
  std::uint64_t total_progress{0};
  std::uint64_t total_received{0};

  /// Committed forced CLCs of a cluster (excluding the initial CLC).
  std::uint64_t clc_forced(ClusterId c) const;
  /// Committed unforced (timer) CLCs of a cluster (excluding initial).
  std::uint64_t clc_unforced(ClusterId c) const;
  /// All committed CLCs of a cluster (including the initial one).
  std::uint64_t clc_total(ClusterId c) const;
  /// Application messages sent from cluster `from` to cluster `to`
  /// (the Table 1 census; excludes protocol re-sends' duplicates only in
  /// the sense that re-sends are counted as traffic, as they are on a wire).
  std::uint64_t app_messages(ClusterId from, ClusterId to) const;
  /// Named counter shorthand.
  std::uint64_t counter(const std::string& name) const {
    return registry.get(name);
  }
};

/// Build, run and audit one simulation in a private, run-scoped SimContext.
RunResult run_simulation(const RunOptions& opts);

/// Build, run and audit one simulation inside a caller-owned context.  The
/// sharded batch runner threads each worker's SimContext through here so
/// payload pools stay warm across the worker's runs; results are
/// byte-identical to the context-less overload regardless of how warm the
/// context is (pool state never leaks into simulation behaviour).  The
/// context must not be used by two runs concurrently.
RunResult run_simulation(const RunOptions& opts, SimContext& ctx);

}  // namespace hc3i::driver
