#pragma once

// Paper §3.4's rollback rule and recovery-line computation (pure).
//
// rollback_target() is the one statement of which CLC a cluster restores
// after a rollback alert, and undone_by_rollback() of which stamped events
// that rollback undoes.  compute_recovery_line() is the fixpoint of the
// alert cascade over every cluster's retained checkpoint metadata: the
// faulty cluster restores its most recent stored CLC, every cluster that
// rollback_target() sends back alerts the others in turn, and a cluster's
// current DDV is the DDV of its effective CLC (entries only change at
// forced-CLC commits).  The garbage collector runs it to "simulate a
// failure in each cluster" (§3.5); tests use it as the oracle the
// distributed cascade must agree with.

#include <cstdint>
#include <span>
#include <vector>

#include "proto/ddv.hpp"
#include "util/check.hpp"
#include "util/ids.hpp"

namespace hc3i::proto {

/// Paper §3.4: after the alert "cluster `faulty` restored SN `restored_sn`",
/// a cluster whose current DDV entry for `faulty` is >= `restored_sn`
/// rolls back to "the first (the older) CLC which has its DDV entry
/// corresponding to the faulty cluster greater than or equal to the
/// received SN" — that forced CLC precedes the first undone delivery.
/// `history` holds the cluster's retained CLCs in increasing-SN order.
/// Returns nullptr when the cluster need not roll back, SN 0 included: a
/// restart from the beginning of the application, which no DDV entry can
/// name, only replays logged messages.  Throws CheckFailure when no
/// retained CLC qualifies (the garbage collector over-pruned).
template <class Record>
const Record* rollback_target(std::span<const Record> history,
                              const Ddv& current_ddv, ClusterId faulty,
                              SeqNum restored_sn) {
  if (restored_sn == 0 || current_ddv.at(faulty) < restored_sn) {
    return nullptr;
  }
  for (const Record& r : history) {
    if (r.ddv.at(faulty) >= restored_sn) return &r;
  }
  HC3I_UNREACHABLE("no rollback target: the garbage collector over-pruned");
}

/// §3.4's undone epoch: an event a cluster stamped (sn, inc) — a send's
/// piggyback, a delivery's ack — is undone by its rollback to `restored`
/// under the new incarnation `new_inc` iff it happened in an older
/// incarnation at or after the restored CLC.
constexpr bool undone_by_rollback(SeqNum sn, Incarnation inc, SeqNum restored,
                                  Incarnation new_inc) {
  return inc < new_inc && sn >= restored;
}

/// Checkpoint metadata exchanged for recovery-line purposes: the paper's
/// "list of all the DDVs associated with the stored CLCs".
struct ClcMeta {
  SeqNum sn{0};
  Ddv ddv;
};

/// Outcome of one simulated failure.
struct RecoveryLine {
  /// restored[c] — the SN of the CLC cluster c lands on; equal to its most
  /// recent SN when the failure does not force it to roll back.
  std::vector<SeqNum> restored;
  /// rolled_back[c] — true when c had to roll back (including the faulty
  /// cluster itself).
  std::vector<bool> rolled_back;
};

/// Compute the recovery line after a failure in `faulty`.
/// `meta[c]` must be the retained CLCs of cluster c in increasing-SN order
/// and non-empty (every cluster stores the initial checkpoint).
/// Throws CheckFailure if the line cannot be constructed (which would mean
/// the garbage collector over-pruned — an invariant violation).
RecoveryLine compute_recovery_line(
    const std::vector<std::vector<ClcMeta>>& meta, ClusterId faulty);

/// The garbage-collection bound (paper §3.5): for each cluster, the
/// smallest SN it might roll back to across a simulated failure of every
/// cluster in turn.  CLCs below this SN (and logged messages acknowledged
/// below it) can never be needed again.
std::vector<SeqNum> gc_min_restored_sns(
    const std::vector<std::vector<ClcMeta>>& meta);

}  // namespace hc3i::proto
