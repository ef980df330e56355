#include "proto/recovery_line.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hc3i::proto {

namespace {

/// Shared fixpoint state over one checkpoint-metadata snapshot.
///
/// The GC initiator "simulates a failure in each cluster" (paper §3.5) —
/// O(C) fixpoints over the same snapshot — and the fixpoint's inner loop
/// needs each cluster's *effective* DDV (the DDV of its most recent record
/// with sn <= its current restored SN).  Rescanning the whole record list
/// for it on every inner-loop call made gc_min_restored_sns quadratic-plus
/// at scale, and re-validating the snapshot per fixpoint repaid the O(total
/// records) checks C times.  The solver validates once at construction and
/// maintains the per-cluster effective index incrementally: it starts at
/// the newest record and only ever moves down, exactly when the fixpoint
/// lowers that cluster's restored SN — so the effective DDV is an O(1)
/// lookup.
class LineSolver {
 public:
  explicit LineSolver(const std::vector<std::vector<ClcMeta>>& meta)
      : meta_(meta), eff_(meta.size()) {
    for (std::size_t c = 0; c < meta_.size(); ++c) {
      HC3I_CHECK(!meta_[c].empty(),
                 "recovery line: cluster " + std::to_string(c) +
                     " has no stored CLC (initial checkpoint missing?)");
      for (std::size_t k = 1; k < meta_[c].size(); ++k) {
        HC3I_CHECK(meta_[c][k].sn > meta_[c][k - 1].sn,
                   "recovery line: metadata must be SN-ordered");
      }
    }
  }

  RecoveryLine solve(ClusterId faulty) {
    const std::size_t n = meta_.size();
    HC3I_CHECK(faulty.v < n, "recovery line: bad faulty cluster");

    RecoveryLine line;
    line.restored.resize(n);
    line.rolled_back.assign(n, false);
    for (std::size_t c = 0; c < n; ++c) {
      line.restored[c] = meta_[c].back().sn;
      eff_[c] = meta_[c].size() - 1;
    }

    // The faulty cluster restores its most recent stored CLC (paper §3.4).
    line.rolled_back[faulty.v] = true;

    // Alert propagation to fixpoint. Each iteration applies every pending
    // alert (i -> everyone); restored SNs are monotonically non-increasing
    // and bounded below by the first stored SN, so this terminates.
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (!line.rolled_back[i]) continue;
        const SeqNum r_i = line.restored[i];
        const ClusterId ci{static_cast<std::uint32_t>(i)};
        for (std::size_t j = 0; j < n; ++j) {
          if (j == i) continue;
          // j's current DDV is the DDV of its effective record — an O(1)
          // read off the incrementally maintained index — and its history
          // the records up to that one.
          const std::span<const ClcMeta> history(meta_[j].data(), eff_[j] + 1);
          const ClcMeta* target =
              rollback_target(history, history.back().ddv, ci, r_i);
          if (target == nullptr) continue;
          // Rolling back to the most recent CLC (target == eff_[j]) still
          // counts: the post-commit execution holds the undone delivery,
          // and the rollback's own alert may cascade further.
          if (target->sn < line.restored[j] || !line.rolled_back[j]) {
            line.restored[j] = target->sn;
            eff_[j] = static_cast<std::size_t>(target - history.data());
            line.rolled_back[j] = true;
            changed = true;
          }
        }
      }
    }
    return line;
  }

 private:
  const std::vector<std::vector<ClcMeta>>& meta_;
  std::vector<std::size_t> eff_;  ///< per-cluster effective-record index
};

}  // namespace

RecoveryLine compute_recovery_line(
    const std::vector<std::vector<ClcMeta>>& meta, ClusterId faulty) {
  return LineSolver(meta).solve(faulty);
}

std::vector<SeqNum> gc_min_restored_sns(
    const std::vector<std::vector<ClcMeta>>& meta) {
  const std::size_t n = meta.size();
  // One solver for all C simulated failures: the snapshot is validated
  // once (before any list is dereferenced) and the fixpoints share its
  // scratch state (ROADMAP's "shared fixpoint" item).
  LineSolver solver(meta);
  std::vector<SeqNum> min_sns(n);
  for (std::size_t c = 0; c < n; ++c) min_sns[c] = meta[c].back().sn;
  for (std::size_t f = 0; f < n; ++f) {
    const RecoveryLine line =
        solver.solve(ClusterId{static_cast<std::uint32_t>(f)});
    for (std::size_t c = 0; c < n; ++c) {
      min_sns[c] = std::min(min_sns[c], line.restored[c]);
    }
  }
  return min_sns;
}

}  // namespace hc3i::proto
