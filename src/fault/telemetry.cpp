#include "fault/telemetry.hpp"

#include <algorithm>

namespace hc3i::fault {

RecoveryTelemetry::RecoveryTelemetry(stats::Registry& registry,
                                     const proto::ConsistencyLedger& ledger)
    : registry_(registry), ledger_(ledger) {
  summary_.residual.id = 0;
  summary_.residual.source = "post-campaign";
}

RecoveryTelemetry::CostSnapshot RecoveryTelemetry::snapshot() const {
  // Read-only lookups: get() never interns, so telemetry cannot perturb a
  // counter dump.  The lost-work summary is interned lazily like any reader.
  CostSnapshot s;
  s.rollbacks = registry_.get("rollback.count");
  s.nodes = registry_.get("rollback.nodes");
  s.alerts = registry_.get("rollback.alerts");
  s.resent_msgs = registry_.get("log.resent_msgs");
  s.resent_bytes = registry_.get("log.resent_bytes");
  s.undone = ledger_.undone_events();
  s.ckpt_bytes = registry_.get("ckpt.bytes_written");
  s.ckpt_saved = registry_.get("ckpt.bytes_delta_saved");
  s.ckpt_stall_us = registry_.get("ckpt.stall_us");
  s.recovery_read_us = registry_.get("recovery.read_us");
  s.lost_work_s = registry_.summary("rollback.lost_work_s").sum();
  return s;
}

void RecoveryTelemetry::attribute_segment() {
  const CostSnapshot now = snapshot();
  struct Field {
    std::uint64_t CostSnapshot::*snap;
    std::uint64_t Incident::*inc;
  };
  static constexpr Field kFields[] = {
      {&CostSnapshot::rollbacks, &Incident::rollbacks},
      {&CostSnapshot::nodes, &Incident::nodes_rolled_back},
      {&CostSnapshot::alerts, &Incident::alert_fanout},
      {&CostSnapshot::resent_msgs, &Incident::replayed_msgs},
      {&CostSnapshot::resent_bytes, &Incident::replayed_bytes},
      {&CostSnapshot::undone, &Incident::events_undone},
      {&CostSnapshot::ckpt_bytes, &Incident::ckpt_bytes_written},
      {&CostSnapshot::ckpt_saved, &Incident::ckpt_bytes_delta_saved},
      {&CostSnapshot::ckpt_stall_us, &Incident::ckpt_stall_us},
      {&CostSnapshot::recovery_read_us, &Incident::recovery_read_us},
  };
  const std::size_t k = open_.size();
  if (k == 0) {
    // No interval covers this segment: the cost is campaign overhead (or a
    // cascade tail) and lands in the residual row, keeping the table's sum
    // exact.
    for (const Field& f : kFields) {
      summary_.residual.*f.inc += now.*f.snap - last_.*f.snap;
    }
    summary_.residual.lost_work_s += now.lost_work_s - last_.lost_work_s;
  } else {
    // Interval intersection: every open incident covers this whole segment,
    // so the delta splits evenly; the oldest absorbs the integer remainder
    // (and the floating-point one) so sums stay exact.
    for (const Field& f : kFields) {
      const std::uint64_t d = now.*f.snap - last_.*f.snap;
      const std::uint64_t share = d / k;
      std::uint64_t given = 0;
      for (std::size_t i = 1; i < k; ++i) {
        incidents_[open_[i]].*f.inc += share;
        given += share;
      }
      incidents_[open_[0]].*f.inc += d - given;
    }
    const double dl = now.lost_work_s - last_.lost_work_s;
    const double share = dl / static_cast<double>(k);
    double given = 0.0;
    for (std::size_t i = 1; i < k; ++i) {
      incidents_[open_[i]].lost_work_s += share;
      given += share;
    }
    incidents_[open_[0]].lost_work_s += dl - given;
  }
  last_ = now;
}

void RecoveryTelemetry::observe_cost(const Incident& inc) {
  registry_.summary_handle("fault.alert_fanout")
      .add(static_cast<double>(inc.alert_fanout));
  registry_.summary_handle("fault.replayed_msgs")
      .add(static_cast<double>(inc.replayed_msgs));
  registry_.summary_handle("fault.nodes_rolled_back")
      .add(static_cast<double>(inc.nodes_rolled_back));
}

void RecoveryTelemetry::begin_incident(SimTime now, NodeId victim,
                                       ClusterId cluster, const char* source) {
  attribute_segment();
  Incident inc;
  inc.id = static_cast<std::uint32_t>(incidents_.size() + 1);
  inc.injected_at = now;
  inc.victim = victim;
  inc.cluster = cluster;
  inc.source = source;
  open_.push_back(incidents_.size());
  incidents_.push_back(inc);
  // Every open incident (including this one) now sees `open_.size()`
  // concurrent recoveries; bump each one's high-water and the campaign's.
  const auto overlap = static_cast<std::uint32_t>(open_.size());
  for (const std::size_t idx : open_) {
    incidents_[idx].concurrent_peak =
        std::max(incidents_[idx].concurrent_peak, overlap);
  }
  summary_.max_overlap = std::max(summary_.max_overlap, overlap);
}

void RecoveryTelemetry::on_failure_detected(SimTime now, ClusterId cluster) {
  // At most one incident per cluster is open (the federation enforces one
  // fault in flight per cluster), so the match is unique.
  for (const std::size_t idx : open_) {
    Incident& inc = incidents_[idx];
    if (inc.cluster == cluster && inc.detected_at == SimTime::zero()) {
      inc.detected_at = now;
      return;
    }
  }
}

void RecoveryTelemetry::on_recovery_complete(SimTime now, ClusterId cluster) {
  const auto it = std::find_if(
      open_.begin(), open_.end(),
      [&](std::size_t idx) { return incidents_[idx].cluster == cluster; });
  if (it == open_.end()) return;  // recovery the engine did not inject
  attribute_segment();
  Incident& inc = incidents_[*it];
  inc.recovered_at = now;
  inc.recovery_complete = true;
  open_.erase(it);
  registry_.summary_handle("fault.recovery_latency_s")
      .add(inc.recovery_latency().seconds());
  latency_us_.add(static_cast<std::uint64_t>(inc.recovery_latency().ns / 1000));
  observe_cost(inc);
}

void RecoveryTelemetry::finalize(SimTime) {
  attribute_segment();
  // Incidents whose recovery never completed close at end of run with their
  // interval deltas as-is (latency stays zero / flagged incomplete).
  for (const std::size_t idx : open_) observe_cost(incidents_[idx]);
  open_.clear();
  summary_.has_residual = true;
}

}  // namespace hc3i::fault
