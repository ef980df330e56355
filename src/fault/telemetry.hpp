#pragma once

// Recovery telemetry: what a failure actually costs.
//
// RecoveryCost is the one record of that cost: paper §3.4's rollbacks,
// alerts, replayed sender log, undone events and lost work, plus checkpoint
// bytes, capture stalls and chain reads when storage is modelled.  An
// incident row, the residual row, a run report and a sweep case each carry
// one.  RecoveryTelemetry turns every injection into an Incident: the engine
// opens one per kill, and the federation's recovery signal stamps the
// latency and closes the interval.  (Detection needs no stamp: it is always
// the injection time plus the timers' detection delay.)
//
// Attribution is *per-incident interval*: an incident owns
// [injection, its own cluster's resume), and the federation-wide cost is
// diffed over the *segments* between interval edges.  A segment during
// which k incidents are open splits its delta evenly across the k (integer
// shares; the oldest open incident absorbs the remainder), which is exactly
// interval-intersection attribution for concurrently-recovering clusters.
// Cost that accrues while *no* incident is open — trailing replay after the
// last resume, cascade tails between incidents — lands in a synthetic
// "post-campaign" residual row, so the incident rows plus the residual sum
// *exactly* to the end-of-run counters.
//
// Windowed deltas keep the attribution deterministic and cheap: nothing on
// the hot path changes, a (seed, campaign) pair always yields the same
// incident table, and the telemetry only reads the registry, so counter
// dumps are untouched.  Each incident also records the high-water of
// recoveries in flight over its interval (`concurrent_peak`), and the
// telemetry tracks the campaign-wide maximum overlap.

#include <cstdint>
#include <vector>

#include "proto/ledger.hpp"
#include "stats/accumulators.hpp"
#include "stats/registry.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace hc3i::fault {

/// What failures cost, federation-wide: a run's totals, one incident's
/// share of them, or a sweep cell's sum.
struct RecoveryCost {
  std::uint64_t rollbacks{0};          ///< cluster rollbacks (origin+cascade)
  std::uint64_t nodes_rolled_back{0};  ///< node-level restores implied
  std::uint64_t alert_fanout{0};       ///< rollback alerts received
  std::uint64_t replayed_msgs{0};      ///< logged messages re-sent
  std::uint64_t replayed_bytes{0};     ///< payload bytes of those re-sends
  std::uint64_t events_undone{0};      ///< ledger events discarded
  std::uint64_t ckpt_bytes_written{0};     ///< checkpoint bytes persisted
  std::uint64_t ckpt_bytes_delta_saved{0}; ///< bytes incremental capture saved
  std::uint64_t ckpt_stall_us{0};      ///< node-us stalled writing captures
  std::uint64_t recovery_read_us{0};   ///< us reading chains back on restore
  double lost_work_s{0.0};             ///< node-seconds of recomputation

  /// The cost so far: the registry's counters plus the ledger's undone
  /// count (`ledger.undone_events` once a run has ended).
  static RecoveryCost read(const stats::Registry& registry,
                           std::uint64_t events_undone);
  /// The per-restore lost-work observations `lost_work_s` sums.
  static const stats::Summary& lost_work(const stats::Registry& registry);

  RecoveryCost& operator+=(const RecoveryCost& o);
  RecoveryCost operator-(const RecoveryCost& o) const;
};

/// One integer field of RecoveryCost and the end-of-run counter it equals.
struct CostCount {
  const char* counter;
  std::uint64_t RecoveryCost::*field;
};

/// Every integer field of RecoveryCost (lost_work_s is the one double).
inline constexpr CostCount kCostCounts[] = {
    {"rollback.count", &RecoveryCost::rollbacks},
    {"rollback.nodes", &RecoveryCost::nodes_rolled_back},
    {"rollback.alerts", &RecoveryCost::alert_fanout},
    {"log.resent_msgs", &RecoveryCost::replayed_msgs},
    {"log.resent_bytes", &RecoveryCost::replayed_bytes},
    {"ledger.undone_events", &RecoveryCost::events_undone},
    {"ckpt.bytes_written", &RecoveryCost::ckpt_bytes_written},
    {"ckpt.bytes_delta_saved", &RecoveryCost::ckpt_bytes_delta_saved},
    {"ckpt.stall_us", &RecoveryCost::ckpt_stall_us},
    {"recovery.read_us", &RecoveryCost::recovery_read_us},
};

/// One injected failure and what its recovery cost.
struct Incident {
  std::uint32_t id{0};            ///< 1-based injection index (0 = residual)
  SimTime injected_at{};
  NodeId victim{};
  ClusterId cluster{};
  const char* source{"scripted"}; ///< scripted|stream|burst|repeat|phase
  SimTime recovered_at{};         ///< faulty cluster's application resume
  bool recovery_complete{false};  ///< recovered_at is valid
  std::uint32_t concurrent_peak{0};  ///< max incidents open during interval
  RecoveryCost cost;  ///< federation-wide cost attributed to this incident

  /// Injection-to-resume latency; zero when recovery never completed.
  SimTime recovery_latency() const {
    return recovery_complete ? recovered_at - injected_at : SimTime::zero();
  }
};

/// Injection-to-resume latencies in seconds, completed recoveries only.
stats::Summary latency_summary(const std::vector<Incident>& incidents);

/// Campaign-level attribution facts the incident table alone cannot show.
struct CampaignSummary {
  bool has_residual{false};   ///< residual row is meaningful (run finalized)
  Incident residual{};        ///< id 0, source "post-campaign": cost accrued
                              ///< while no incident was open
  std::uint32_t max_overlap{0};  ///< most recoveries ever in flight at once
};

/// Observer-side recorder of per-incident recovery cost.
class RecoveryTelemetry {
 public:
  RecoveryTelemetry(const stats::Registry& registry,
                    const proto::ConsistencyLedger& ledger);

  /// A failure was injected: attributes the elapsed segment and opens a new
  /// incident interval (concurrently with any intervals already open).
  void begin_incident(SimTime now, NodeId victim, ClusterId cluster,
                      const char* source);
  /// The faulty cluster's application resumed (federation recovery signal):
  /// attributes the elapsed segment and closes that cluster's incident.
  void on_recovery_complete(SimTime now, ClusterId cluster);
  /// End of run: attribute the tail segment and close any stuck intervals.
  void finalize(SimTime now);

  const std::vector<Incident>& incidents() const { return incidents_; }
  std::vector<Incident> take_incidents() { return std::move(incidents_); }
  /// Residual row + overlap high-water (valid once finalize() ran).
  CampaignSummary summary() const { return summary_; }
  /// Recovery-latency distribution in microseconds (completed recoveries
  /// only): the tail a mean hides under overlapping incidents.
  const stats::Log2Histogram& latency_histogram() const {
    return latency_us_;
  }

 private:
  /// Split the delta since `last_` across the open incidents (or into the
  /// residual when none are open) and advance `last_`.
  void attribute_segment();

  const stats::Registry& registry_;
  const proto::ConsistencyLedger& ledger_;
  std::vector<Incident> incidents_;
  std::vector<std::size_t> open_;  ///< indices into incidents_, oldest first
  RecoveryCost last_{};            ///< zero-init: pre-campaign cost → residual
  CampaignSummary summary_{};
  stats::Log2Histogram latency_us_;  ///< completed recovery latencies, us
};

}  // namespace hc3i::fault
