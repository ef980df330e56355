#include "config/spec.hpp"

#include <cmath>

namespace hc3i::config {

std::uint32_t TopologySpec::total_nodes() const {
  std::uint32_t total = 0;
  for (const auto& c : clusters) total += c.nodes;
  return total;
}

const LinkSpec& TopologySpec::inter_link(ClusterId a, ClusterId b) const {
  HC3I_CHECK(a != b, "inter_link: same cluster on both ends");
  HC3I_CHECK(a.v < inter.size() && b.v < inter.size(),
             "inter_link: cluster id out of range");
  return inter[a.v][b.v];
}

void TopologySpec::validate() const {
  HC3I_CHECK(!clusters.empty(), "topology: at least one cluster required");
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    HC3I_CHECK(clusters[i].nodes >= 1,
               "topology: cluster " + std::to_string(i) + " has no nodes");
    HC3I_CHECK(clusters[i].san.latency.ns >= 0,
               "topology: negative SAN latency");
    HC3I_CHECK(clusters[i].san.bytes_per_sec > 0,
               "topology: SAN bandwidth must be positive");
    const StorageSpec& st = clusters[i].storage;
    if (st.enabled()) {
      HC3I_CHECK(st.latency.ns >= 0 && !st.latency.is_infinite(),
                 "topology: cluster " + std::to_string(i) +
                     " storage latency must be finite and >= 0");
      HC3I_CHECK(st.write_bytes_per_sec > 0 &&
                     std::isfinite(st.write_bytes_per_sec),
                 "topology: cluster " + std::to_string(i) +
                     " storage write bandwidth must be positive and finite");
      HC3I_CHECK(st.read_bytes_per_sec > 0 &&
                     std::isfinite(st.read_bytes_per_sec),
                 "topology: cluster " + std::to_string(i) +
                     " storage read bandwidth must be positive and finite");
      HC3I_CHECK(st.kind != StorageSpec::Kind::kStripedRemote ||
                     st.stripe_width >= 1,
                 "topology: cluster " + std::to_string(i) +
                     " stripe_width must be >= 1");
    }
  }
  HC3I_CHECK(inter.size() == clusters.size(),
             "topology: inter-link matrix has wrong row count");
  for (std::size_t i = 0; i < inter.size(); ++i) {
    HC3I_CHECK(inter[i].size() == clusters.size(),
               "topology: inter-link matrix has wrong column count");
    for (std::size_t j = 0; j < inter.size(); ++j) {
      if (i == j) continue;
      HC3I_CHECK(inter[i][j].latency == inter[j][i].latency &&
                     inter[i][j].bytes_per_sec == inter[j][i].bytes_per_sec,
                 "topology: inter-link matrix must be symmetric");
      HC3I_CHECK(inter[i][j].bytes_per_sec > 0,
                 "topology: inter-cluster bandwidth must be positive");
    }
  }
  HC3I_CHECK(mtbf.ns > 0, "topology: MTBF must be positive");
}

void ApplicationSpec::validate(const TopologySpec& topo) const {
  HC3I_CHECK(total_time.ns > 0, "application: total_time must be positive");
  HC3I_CHECK(!total_time.is_infinite(), "application: total_time must be finite");
  HC3I_CHECK(clusters.size() == topo.cluster_count(),
             "application: per-cluster spec count does not match topology");
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    const auto& c = clusters[i];
    HC3I_CHECK(c.mean_compute.ns > 0,
               "application: cluster " + std::to_string(i) +
                   " mean_compute must be positive");
    HC3I_CHECK(c.traffic.size() == topo.cluster_count(),
               "application: traffic row " + std::to_string(i) +
                   " has wrong length");
    for (double w : c.traffic) {
      HC3I_CHECK(w >= 0.0 && std::isfinite(w),
                 "application: traffic weights must be finite and >= 0");
    }
    HC3I_CHECK(c.message_bytes > 0, "application: message_bytes must be > 0");
  }
  HC3I_CHECK(state_bytes > 0, "application: state_bytes must be > 0");
}

void TimersSpec::validate(const TopologySpec& topo) const {
  HC3I_CHECK(clusters.size() == topo.cluster_count(),
             "timers: per-cluster spec count does not match topology");
  for (const auto& c : clusters) {
    HC3I_CHECK(c.clc_period.ns > 0, "timers: clc_period must be positive");
  }
  HC3I_CHECK(gc_period.ns > 0, "timers: gc_period must be positive");
  HC3I_CHECK(detection_delay.ns >= 0, "timers: negative detection delay");
}

void RunSpec::validate() const {
  topology.validate();
  application.validate(topology);
  timers.validate(topology);
}

SimTime state_transfer_time(const RunSpec& spec, ClusterId c) {
  const LinkSpec& san = spec.topology.clusters[c.v].san;
  SimTime t = san.latency;
  if (std::isfinite(san.bytes_per_sec)) {
    t += from_seconds_f(static_cast<double>(spec.application.state_bytes) /
                        san.bytes_per_sec);
  }
  return t;
}

}  // namespace hc3i::config
