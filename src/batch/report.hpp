#pragma once

// Aggregated results of a sharded sweep.
//
// Workers stream one CaseResult per run into the report's grid-ordered slot
// vector; rendering happens after the join, so the table and the JSON are
// independent of which worker ran which case and in what order — the same
// schedule-independence contract the per-run counter dumps obey.

#include <cstdint>
#include <string>
#include <vector>

#include "fault/telemetry.hpp"

namespace hc3i::batch {

/// Outcome of one grid cell's run.
struct CaseResult {
  std::size_t index{0};
  std::string topology;
  std::string campaign;
  std::string storage;  ///< storage-point label; "" = storage off
  std::uint64_t seed{1};
  bool ok{false};
  std::string error;  ///< CheckFailure text when the run threw

  std::uint64_t events{0};
  std::uint64_t violations{0};
  std::uint64_t clcs{0};       ///< committed CLCs across clusters
  std::uint64_t faults{0};     ///< injected failures
  fault::RecoveryCost cost;    ///< the run's total recovery cost
  double recovery_latency_s{0.0};  ///< mean injection-to-resume latency
  std::uint64_t pairs{0};       ///< cluster pairs that carried app traffic
  std::uint64_t max_clcs{0};    ///< retained-CLC high-water across clusters
  std::uint64_t gc_saved_bytes{0};  ///< GC response bytes the delta saved
  double wall_sec{0.0};

  /// 64-bit FNV-1a of the run's full registry dump, the string `dump`
  /// keeps: equal digests across processes and shard counts are the sweep
  /// CLI's determinism check.
  std::uint64_t digest{0};
  /// Full registry dump (RunnerOptions::keep_dumps only): byte-identical to
  /// the --dump-counters output of a solo run of the same (spec, seed).
  std::string dump;
};

/// Per-worker execution stats (shard telemetry, not simulation results).
struct WorkerStats {
  std::size_t runs{0};
  double wall_sec{0.0};
  std::uint64_t pool_reused{0};  ///< payload blocks served from the warm pool
  std::uint64_t pool_fresh{0};   ///< payload blocks that hit the heap
};

/// Everything one Runner::run() produced.
struct BatchReport {
  std::vector<CaseResult> cases;    ///< grid order (RunCase::index)
  std::vector<WorkerStats> workers; ///< worker 0..threads-1
  std::size_t threads{1};
  double wall_sec{0.0};

  std::uint64_t total_events() const;
  std::size_t failures() const;  ///< cases with violations or an error
  double runs_per_min() const;

  /// Human-readable aggregate: one row per (topology, campaign, storage)
  /// cell plus a throughput footer.  With the storage axis active, the
  /// storage columns add ckpt bytes, stall s, read s and cost s (stall +
  /// read + lost work), the sum an optimal checkpoint interval minimises.
  std::string render_table() const;

  /// Machine-readable form: aggregate header, per-worker stats, and one
  /// object per case (its dump's digest, not the dump).
  std::string to_json() const;
};

}  // namespace hc3i::batch
