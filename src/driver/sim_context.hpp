#pragma once

// Per-worker simulation substrate.
//
// A SimContext owns every piece of mutable state that outlives one run but
// must not be shared between concurrent runs: today that is the payload
// arena (proto/payload_pool.hpp).  The sharded batch runner (src/batch/)
// gives each worker thread one SimContext and reuses it across the runs the
// worker executes, which is what turns per-run pool warm-up from a
// per-process one-off into an amortised per-worker cost: the second run a
// worker executes pops warm free-list blocks where the first paid heap
// allocations.
//
// The ownership rule it encodes (docs/architecture.md, PR 7):
//
//   * shared read-only across shards — immutable sweep inputs: topology /
//     application / timer specs and campaign plans (batch::RunCase holds
//     them behind shared_ptr<const>), interned metric *names* (strings,
//     created once, read-only after).
//   * shard-local, deliberately NOT atomic — everything a run mutates:
//     the simulation kernel and its event queue, stats::Registry values,
//     RNG streams, COW refcounts (proto::Ddv spills, and the RcBox blocks
//     behind MsgLog/LogImage and DedupSet/DedupImage), and this context's
//     payload arena.  None of these carry locks, and these refcounts are
//     plain integers; isolation, not synchronisation, is the concurrency
//     model, and the TSan CI job checks that claim.  (Control payloads
//     still travel as std::shared_ptr, whose count is atomic; no payload
//     crosses runs.)
//
// driver::run_simulation(opts) with no context constructs a private one per
// run — solo behaviour is unchanged, and pool teardown happens at run end
// (deterministically, not at static destruction).

#include "proto/payload_pool.hpp"

namespace hc3i::driver {

/// Worker-owned state threaded through run_simulation(); reuse across runs
/// keeps payload pools warm, and teardown releases them deterministically.
class SimContext {
 public:
  SimContext() = default;
  SimContext(const SimContext&) = delete;
  SimContext& operator=(const SimContext&) = delete;

  /// The worker's payload arena (installed for the duration of each run).
  proto::PayloadArena& arena() { return arena_; }
  const proto::PayloadArena& arena() const { return arena_; }

 private:
  proto::PayloadArena arena_;
};

}  // namespace hc3i::driver
