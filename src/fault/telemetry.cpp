#include "fault/telemetry.hpp"

#include <algorithm>

namespace hc3i::fault {

RecoveryCost RecoveryCost::read(const stats::Registry& registry,
                                std::uint64_t events_undone) {
  // Read-only lookups: get() never interns, so reading cannot perturb a
  // counter dump.  The ledger's undone count reaches the registry only at
  // the end of a run, so the caller passes it in.
  RecoveryCost c;
  for (const CostCount& f : kCostCounts) c.*f.field = registry.get(f.counter);
  c.events_undone = events_undone;
  c.lost_work_s = lost_work(registry).sum();
  return c;
}

const stats::Summary& RecoveryCost::lost_work(
    const stats::Registry& registry) {
  return registry.summary("rollback.lost_work_s");
}

RecoveryCost& RecoveryCost::operator+=(const RecoveryCost& o) {
  for (const CostCount& f : kCostCounts) this->*f.field += o.*f.field;
  lost_work_s += o.lost_work_s;
  return *this;
}

RecoveryCost RecoveryCost::operator-(const RecoveryCost& o) const {
  RecoveryCost d = *this;
  for (const CostCount& f : kCostCounts) d.*f.field -= o.*f.field;
  d.lost_work_s -= o.lost_work_s;
  return d;
}

stats::Summary latency_summary(const std::vector<Incident>& incidents) {
  stats::Summary s;
  for (const Incident& inc : incidents) {
    if (inc.recovery_complete) s.add(inc.recovery_latency().seconds());
  }
  return s;
}

RecoveryTelemetry::RecoveryTelemetry(const stats::Registry& registry,
                                     const proto::ConsistencyLedger& ledger)
    : registry_(registry), ledger_(ledger) {
  summary_.residual.id = 0;
  summary_.residual.source = "post-campaign";
}

void RecoveryTelemetry::attribute_segment() {
  const RecoveryCost now =
      RecoveryCost::read(registry_, ledger_.undone_events());
  const RecoveryCost d = now - last_;
  last_ = now;
  const std::size_t k = open_.size();
  if (k == 0) {
    // No interval covers this segment: the cost is campaign overhead (or a
    // cascade tail) and lands in the residual row, keeping the table's sum
    // exact.
    summary_.residual.cost += d;
    return;
  }
  // Interval intersection: every open incident covers this whole segment,
  // so the delta splits evenly; the oldest absorbs the integer remainder
  // (and the floating-point one) so sums stay exact.
  RecoveryCost& oldest = incidents_[open_[0]].cost;
  for (const CostCount& f : kCostCounts) {
    const std::uint64_t share = d.*f.field / k;
    for (std::size_t i = 1; i < k; ++i) {
      incidents_[open_[i]].cost.*f.field += share;
    }
    oldest.*f.field += d.*f.field - share * (k - 1);
  }
  const double share = d.lost_work_s / static_cast<double>(k);
  double given = 0.0;
  for (std::size_t i = 1; i < k; ++i) {
    incidents_[open_[i]].cost.lost_work_s += share;
    given += share;
  }
  oldest.lost_work_s += d.lost_work_s - given;
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
  latency_us_.add(static_cast<std::uint64_t>(inc.recovery_latency().ns / 1000));
}

void RecoveryTelemetry::finalize(SimTime) {
  attribute_segment();
  // Incidents whose recovery never completed close at end of run with their
  // interval deltas as-is (latency stays zero / flagged incomplete).
  open_.clear();
  summary_.has_residual = true;
}

}  // namespace hc3i::fault
