#pragma once

// Declarative fault campaigns.
//
// The protocol's whole reason to exist is surviving failures, but a bare
// "kill node n at time t" list cannot express the failure patterns the
// CIC/rollback literature measures against: sustained Poisson fault load,
// correlated rack loss, flaky repeat-offender machines, or failures timed
// against a protocol phase (the hand-built race in
// Rollback.FailureBetweenPhase1AcksLeavesNoStaleDdv).  A fault::Campaign is
// the declarative form of all of those: a list of typed injectors that the
// CampaignEngine (fault/engine.hpp) compiles into simulator events against a
// live federation, with at most one fault in flight per cluster (paper §2.1
// read cluster-locally) and per-incident recovery telemetry
// (fault/telemetry.hpp).
//
// This header is pure data + validation: it depends only on config/spec and
// util so the config parser/writer (campaign files) and the driver can share
// the type without pulling in the federation.  Campaigns are deterministic by
// construction — every random choice is drawn from a fixed, per-injector RNG
// stream — so a (seed, campaign) pair always produces a byte-identical
// counter dump.

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "config/spec.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace hc3i::fault {

/// One-shot kill at a fixed simulated time (subsumes the driver's legacy
/// `ScriptedFailure`).  If the victim's cluster is still recovering at
/// `at`, the kill queues on that cluster's FIFO (counted under
/// `fault.queued_same_cluster`) and fires when that recovery completes.
struct KillSpec {
  SimTime at{};
  NodeId victim{};
  constexpr bool operator==(const KillSpec&) const = default;
};

/// Poisson/MTBF failure stream: exponential inter-arrival times with mean
/// `mtbf`, victims drawn uniformly from `cluster` (or the whole federation
/// when `cluster` is empty — the legacy `auto_failures` behaviour).  A
/// firing that lands while its cluster (or, federation-wide, the drawn
/// victim's cluster) is recovering blocks: a fresh gap is drawn once that
/// recovery completes.  The stream dies permanently when a draw lands past
/// min(`stop`, quiesce bound).
struct StreamSpec {
  std::optional<ClusterId> cluster;  ///< empty = federation-wide
  SimTime mtbf{};
  SimTime start{SimTime::zero()};
  SimTime stop{SimTime::infinity()};  ///< clamped to the quiesce bound
  constexpr bool operator==(const StreamSpec&) const = default;
};

/// Correlated burst: `kills` distinct nodes of one cluster within `window`
/// of `at` — the rack-loss pattern.  The protocol model admits one fault at
/// a time per cluster, so the burst is the fastest legal serialisation:
/// kills are spaced evenly across the window and any kill that lands
/// mid-recovery fires the instant that recovery completes.  Victims are the
/// cluster's nodes in local order starting at `first_victim`.
struct BurstSpec {
  ClusterId cluster{};
  std::uint32_t kills{2};
  SimTime at{};
  SimTime window{};
  std::uint32_t first_victim{0};  ///< local index of the first victim
  constexpr bool operator==(const BurstSpec&) const = default;
};

/// Repeat offender: the same node fails `times` times — first at `first`,
/// then every `gap`.  Occurrences that would land past the quiesce bound are
/// clamped away; mid-recovery occurrences queue like any timed kill.
struct RepeatSpec {
  NodeId victim{};
  std::uint32_t times{2};
  SimTime first{};
  SimTime gap{};
  constexpr bool operator==(const RepeatSpec&) const = default;
};

/// Protocol phase a trigger can target (HC3I protocols only).
enum class Phase : std::uint8_t {
  kPhase1Acks,  ///< between a CLC round's phase-1 acks and its commit
  kCommit,      ///< immediately after a CLC commit
};

/// Phase-targeted trigger: fire relative to protocol state instead of the
/// clock.  `kPhase1Acks` fires when the `occurrence`-th observed round in
/// `cluster` (at or after `not_before`) has collected `after_acks` phase-1
/// acks but has not committed — the generalisation of the hand-built
/// mid-round race regression.  `kCommit` fires right after that round
/// commits.  One-shot; skipped (and counted) if `victim`'s own cluster is
/// recovering.
struct PhaseTriggerSpec {
  ClusterId cluster{};
  Phase phase{Phase::kPhase1Acks};
  /// kPhase1Acks: ack count that arms the kill; must be strictly below the
  /// cluster size (the last ack commits synchronously, so the window
  /// closes there — validate() enforces this).
  std::uint32_t after_acks{1};
  std::uint32_t occurrence{1};   ///< 1-based index of the matching event
  NodeId victim{};
  SimTime not_before{SimTime::zero()};
  constexpr bool operator==(const PhaseTriggerSpec&) const = default;
};

/// A fault campaign: every injector of every kind, armed together.
struct Campaign {
  std::vector<KillSpec> kills;
  std::vector<StreamSpec> streams;
  std::vector<BurstSpec> bursts;
  std::vector<RepeatSpec> repeats;
  std::vector<PhaseTriggerSpec> phase_triggers;

  bool operator==(const Campaign&) const = default;

  /// True when no injector is configured (the engine is not even built).
  bool empty() const {
    return kills.empty() && streams.empty() && bursts.empty() &&
           repeats.empty() && phase_triggers.empty();
  }
  /// Total number of injectors.
  std::size_t size() const {
    return kills.size() + streams.size() + bursts.size() + repeats.size() +
           phase_triggers.size();
  }

  /// Structural validation against a topology (victims exist, clusters in
  /// range, burst fits its cluster, stream MTBF positive...).  Throws
  /// CheckFailure with the offending injector on inconsistency.
  void validate(const config::TopologySpec& topo) const;
};

/// Human-readable phase name ("phase1_acks" / "commit"); round-trips through
/// parse_phase.
const char* to_string(Phase p);
/// Parse a phase name; empty optional on unknown input.
std::optional<Phase> parse_phase(std::string_view name);

/// The fixed campaign of the scale-out regime (docs/scaling.md "failures at
/// scale"): one scripted kill, a 3-node burst, a per-cluster MTBF stream, a
/// repeat offender and a commit-targeted trigger, with times expressed as
/// fractions of `total` so the same shape runs at any horizon.  Requires
/// `clusters >= 2`; sweep's `faulty` campaign kind, and at 10x100 over 30 min
/// the committed configs/scale/faulty.campaign behind the
/// golden_counters_scale_faulty golden.
Campaign reference_scale_campaign(std::size_t clusters, std::uint32_t nodes,
                                  SimTime total);

/// The concurrent-recovery variant of the scale-out campaign
/// (docs/scaling.md "concurrent incidents"): three bursts start at the same
/// instant in *disjoint* clusters, a scripted kill lands in cluster 0 at
/// that instant and a second cluster-0 kill 20 ms later exercises the
/// kill-during-recovery queue (`fault.queued_same_cluster`).  Requires
/// `clusters >= 4`; this campaign exists to overlap recoveries.  Used by
/// the benchmark's `faulty`, `storage_traced` and `wide_sweep` workloads,
/// sweep's `overlap` campaign kind, and at 10x100 over 30 min the committed
/// configs/scale/overlap.campaign behind the golden_counters_scale_overlap
/// and golden_counters_scale_storage goldens.
Campaign reference_overlap_campaign(std::size_t clusters, std::uint32_t nodes,
                                    SimTime total);

/// One time-scheduled kill: a [kill], one kill of a [burst], or one
/// occurrence of a [repeat].
struct TimedKill {
  SimTime at{};
  NodeId victim{};
  ClusterId cluster{};      ///< the victim's cluster
  const char* source{""};   ///< "scripted", "burst" or "repeat"
  std::size_t injector{0};  ///< 0-based index within its section
};

/// Expand every time-scheduled injector of `plan` in campaign order: the
/// kills, then each burst's kills (spaced evenly across its window, victims
/// in local order from `first_victim`), then each repeat's occurrences up
/// to `bound` (later ones are clamped away).  Streams and phase triggers
/// have no static schedule.  The engine schedules this list as is;
/// check_queue_bounds walks it in time order.
std::vector<TimedKill> timed_kills(const Campaign& plan,
                                   const config::TopologySpec& topo,
                                   SimTime bound);

/// Reject campaigns whose scheduled kills pile into a same-cluster queue
/// that cannot drain before the quiesce bound (an effectively unbounded
/// queue: every queued kill past the bound is dropped en masse).  Models
/// each cluster's recovery as a FIFO server with an estimated service time
/// of detection delay + config::state_transfer_time, walks timed_kills()
/// in time order and throws CheckFailure naming the offending injector when
/// a queued kill could not fire before `bound`.
void check_queue_bounds(const Campaign& plan, const config::RunSpec& spec,
                        SimTime bound);

}  // namespace hc3i::fault
