#pragma once

// Sharded execution of a sweep grid.
//
// Runner::run() expands the grid and shards the runs across N worker
// threads.  Each worker owns its full simulation context (a
// driver::SimContext — payload arena today, every future worker-scoped
// resource tomorrow) and executes whole runs pulled from a shared atomic
// cursor; the only cross-thread traffic is that cursor, the immutable
// shared specs/plans, and each case's result slot (disjoint per case,
// written before the join).  No simulation state is shared, nothing inside
// a run is atomic, and per-run results are byte-identical to solo
// single-threaded runs of the same (spec, seed) regardless of shard count
// or interleaving — tests/batch_test.cpp pins that property and the TSan
// CI job watches the no-sharing claim.

#include <cstddef>
#include <string>
#include <vector>

#include "batch/report.hpp"
#include "batch/sweep.hpp"
#include "util/time.hpp"

namespace hc3i::batch {

/// Runner knobs.
struct RunnerOptions {
  /// Worker thread count; 0 = one per hardware thread.
  std::size_t threads{0};
  /// Retain each run's full counter dump in its CaseResult (the
  /// shard-isolation tests byte-compare these; every case reports the
  /// dump's digest either way).
  bool keep_dumps{false};
  /// When non-empty, every case runs with the structured trace on and
  /// writes `<obs_dir>/case<index>.trace.json` (plus
  /// `case<index>.metrics.tsv` when `obs_metrics_interval` is non-zero).
  /// Paths are keyed by the case's grid index, so concurrent workers write
  /// disjoint files; contents are byte-identical across shard counts
  /// because the runs themselves are.
  std::string obs_dir;
  /// Metrics sampling period for obs_dir cases (zero = trace only).
  SimTime obs_metrics_interval{SimTime::zero()};
};

/// Shards a sweep's runs across worker threads, each with its own
/// SimContext.
class Runner {
 public:
  explicit Runner(RunnerOptions opts = {}) : opts_(opts) {}

  /// Expand and execute the whole grid; blocks until every run finished.
  /// A run that throws (consistency violation, campaign rejection) becomes
  /// a failed CaseResult, never tears down the batch.
  BatchReport run(const SweepSpec& sweep) const;

  /// Execute pre-expanded cases (the grid order of `cases` is the report
  /// order).
  BatchReport run(const std::vector<RunCase>& cases) const;

 private:
  RunnerOptions opts_;
};

}  // namespace hc3i::batch
