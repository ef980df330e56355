#include "fault/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "util/check.hpp"

namespace hc3i::fault {

namespace {

void check_node(NodeId n, const config::TopologySpec& topo, const char* what) {
  HC3I_CHECK(n.v < topo.total_nodes(),
             std::string(what) + ": victim node " + std::to_string(n.v) +
                 " out of range (federation has " +
                 std::to_string(topo.total_nodes()) + " nodes)");
}

void check_cluster(ClusterId c, const config::TopologySpec& topo,
                   const char* what) {
  HC3I_CHECK(c.v < topo.cluster_count(),
             std::string(what) + ": cluster " + std::to_string(c.v) +
                 " out of range (federation has " +
                 std::to_string(topo.cluster_count()) + " clusters)");
}

}  // namespace

void Campaign::validate(const config::TopologySpec& topo) const {
  for (const KillSpec& k : kills) {
    check_node(k.victim, topo, "campaign [kill]");
    HC3I_CHECK(!k.at.is_infinite(), "campaign [kill]: 'at' must be finite");
  }
  for (const StreamSpec& s : streams) {
    if (s.cluster) check_cluster(*s.cluster, topo, "campaign [stream]");
    HC3I_CHECK(s.mtbf.ns > 0 && !s.mtbf.is_infinite(),
               "campaign [stream]: mtbf must be positive and finite");
    HC3I_CHECK(s.start <= s.stop,
               "campaign [stream]: start must not exceed stop");
  }
  for (const BurstSpec& b : bursts) {
    check_cluster(b.cluster, topo, "campaign [burst]");
    HC3I_CHECK(b.kills >= 1, "campaign [burst]: kills must be >= 1");
    const std::uint32_t size = topo.clusters[b.cluster.v].nodes;
    HC3I_CHECK(b.first_victim < size,
               "campaign [burst]: first_victim out of cluster range");
    HC3I_CHECK(b.kills <= size,
               "campaign [burst]: kills " + std::to_string(b.kills) +
                   " exceeds cluster size " + std::to_string(size));
    HC3I_CHECK(!b.at.is_infinite() && !b.window.is_infinite(),
               "campaign [burst]: at/window must be finite");
  }
  for (const RepeatSpec& r : repeats) {
    check_node(r.victim, topo, "campaign [repeat]");
    HC3I_CHECK(r.times >= 1, "campaign [repeat]: times must be >= 1");
    HC3I_CHECK(!r.first.is_infinite(),
               "campaign [repeat]: 'first' must be finite");
    HC3I_CHECK(r.times == 1 || (r.gap.ns > 0 && !r.gap.is_infinite()),
               "campaign [repeat]: gap must be positive for times > 1");
  }
  for (const PhaseTriggerSpec& t : phase_triggers) {
    check_cluster(t.cluster, topo, "campaign [phase_trigger]");
    check_node(t.victim, topo, "campaign [phase_trigger]");
    HC3I_CHECK(t.after_acks >= 1,
               "campaign [phase_trigger]: after_acks must be >= 1");
    if (t.phase == Phase::kPhase1Acks) {
      // The commit runs synchronously once the last ack is recorded, so a
      // kill "between phase-1 acks and commit" needs after_acks strictly
      // below the cluster size; a larger value would never match at all.
      HC3I_CHECK(t.after_acks < topo.clusters[t.cluster.v].nodes,
                 "campaign [phase_trigger]: after_acks " +
                     std::to_string(t.after_acks) +
                     " must be below the cluster size " +
                     std::to_string(topo.clusters[t.cluster.v].nodes) +
                     " for the ack/commit window to exist");
    }
    HC3I_CHECK(t.occurrence >= 1,
               "campaign [phase_trigger]: occurrence must be >= 1");
  }
}

const char* to_string(Phase p) {
  switch (p) {
    case Phase::kPhase1Acks:
      return "phase1_acks";
    case Phase::kCommit:
      return "commit";
  }
  HC3I_UNREACHABLE("bad fault::Phase");
}

std::optional<Phase> parse_phase(std::string_view name) {
  if (name == "phase1_acks") return Phase::kPhase1Acks;
  if (name == "commit") return Phase::kCommit;
  return std::nullopt;
}

Campaign reference_scale_campaign(std::size_t clusters, std::uint32_t nodes,
                                  SimTime total) {
  HC3I_CHECK(clusters >= 2 && nodes >= 4,
             "reference_scale_campaign needs >= 2 clusters of >= 4 nodes");
  // Times are fractions of the horizon so the same campaign shape runs at
  // the bench's 10-minute and the CI golden's 30-minute horizons alike.
  const auto frac = [total](double f) {
    return SimTime{static_cast<std::int64_t>(static_cast<double>(total.ns) * f)};
  };
  Campaign plan;
  // One scripted kill in cluster 0's interior.
  plan.kills.push_back(KillSpec{frac(0.20), NodeId{nodes / 2}});
  // Rack loss: three nodes of cluster 1 inside a 5%-of-horizon window.
  plan.bursts.push_back(
      BurstSpec{ClusterId{1}, 3, frac(0.35), frac(0.05), /*first_victim=*/1});
  // Sustained Poisson load on the last cluster for the middle of the run.
  StreamSpec stream;
  stream.cluster = ClusterId{static_cast<std::uint32_t>(clusters - 1)};
  stream.mtbf = frac(0.20);
  stream.start = frac(0.50);
  stream.stop = frac(0.90);
  plan.streams.push_back(stream);
  // A flaky machine in cluster 0 that fails twice.
  plan.repeats.push_back(
      RepeatSpec{NodeId{1}, 2, frac(0.55), frac(0.15)});
  // Phase-targeted: kill a cluster-0 node right after its 4th CLC commit.
  PhaseTriggerSpec trigger;
  trigger.cluster = ClusterId{0};
  trigger.phase = Phase::kCommit;
  trigger.occurrence = 4;
  trigger.victim = NodeId{2};
  trigger.not_before = frac(0.10);
  plan.phase_triggers.push_back(trigger);
  return plan;
}

Campaign reference_overlap_campaign(std::size_t clusters, std::uint32_t nodes,
                                    SimTime total) {
  HC3I_CHECK(clusters >= 4 && nodes >= 4,
             "reference_overlap_campaign needs >= 4 clusters of >= 4 nodes");
  const auto frac = [total](double f) {
    return SimTime{static_cast<std::int64_t>(static_cast<double>(total.ns) * f)};
  };
  Campaign plan;
  // A solo kill well clear of everything else (the single-incident baseline
  // row of the incident table).
  plan.kills.push_back(KillSpec{frac(0.20), NodeId{nodes / 2}});
  // The overlap instant: a cluster-0 kill fires at the same simulated time
  // as the first kill of each burst below, so four clusters recover
  // concurrently.
  plan.kills.push_back(KillSpec{frac(0.30), NodeId{nodes / 2}});
  // Kill during recovery: 20 ms later — inside cluster 0's recovery window
  // (detection delay alone is 50 ms) — a second cluster-0 kill queues and
  // fires at that cluster's recovery completion
  // (`fault.queued_same_cluster`).
  plan.kills.push_back(
      KillSpec{frac(0.30) + milliseconds(20), NodeId{nodes / 2 + 1}});
  // Overlapping rack loss across disjoint clusters: bursts in clusters 1
  // and 2 share the same window, a two-kill burst in cluster 3 starts at
  // the same instant.
  plan.bursts.push_back(
      BurstSpec{ClusterId{1}, 3, frac(0.30), frac(0.05), /*first_victim=*/1});
  plan.bursts.push_back(
      BurstSpec{ClusterId{2}, 3, frac(0.30), frac(0.05), /*first_victim=*/1});
  plan.bursts.push_back(
      BurstSpec{ClusterId{3}, 2, frac(0.30), frac(0.04), /*first_victim=*/0});
  // Sustained Poisson load on the last cluster for the middle of the run
  // (redraws at *its* cluster's recovery completion, not a global edge).
  StreamSpec stream;
  stream.cluster = ClusterId{static_cast<std::uint32_t>(clusters - 1)};
  stream.mtbf = frac(0.20);
  stream.start = frac(0.50);
  stream.stop = frac(0.90);
  plan.streams.push_back(stream);
  // A flaky cluster-0 machine late in the run.
  plan.repeats.push_back(RepeatSpec{NodeId{1}, 2, frac(0.55), frac(0.15)});
  // Phase-targeted kill, tolerant of concurrent remote-cluster recoveries.
  PhaseTriggerSpec trigger;
  trigger.cluster = ClusterId{0};
  trigger.phase = Phase::kCommit;
  trigger.occurrence = 4;
  trigger.victim = NodeId{2};
  trigger.not_before = frac(0.10);
  plan.phase_triggers.push_back(trigger);
  return plan;
}

void check_queue_bounds(const Campaign& plan, const config::RunSpec& spec,
                        SimTime bound) {
  const auto& topo = spec.topology;
  // Estimated recovery service time per cluster: failure detection plus the
  // state transfer that restores the victim from its neighbour's replica.
  const auto recovery_estimate = [&](std::uint32_t c) {
    const auto& san = topo.clusters[c].san;
    SimTime r = spec.timers.detection_delay + san.latency;
    if (std::isfinite(san.bytes_per_sec)) {
      r = r + from_seconds_f(
                  static_cast<double>(spec.application.state_bytes) /
                  san.bytes_per_sec);
    }
    return r;
  };
  const auto cluster_of = [&](NodeId n) {
    std::uint32_t c = 0, base = 0;
    while (base + topo.clusters[c].nodes <= n.v) base += topo.clusters[c++].nodes;
    return c;
  };

  struct ScheduledKill {
    SimTime at{};
    std::uint32_t cluster{};
    std::string injector;
  };
  std::vector<ScheduledKill> kills;
  for (std::size_t i = 0; i < plan.kills.size(); ++i) {
    const KillSpec& k = plan.kills[i];
    kills.push_back({k.at, cluster_of(k.victim),
                     "[kill] #" + std::to_string(i + 1)});
  }
  for (std::size_t i = 0; i < plan.bursts.size(); ++i) {
    const BurstSpec& b = plan.bursts[i];
    for (std::uint32_t j = 0; j < b.kills; ++j) {
      const SimTime when =
          b.kills > 1
              ? SimTime{b.at.ns +
                        (b.window.ns * static_cast<std::int64_t>(j)) /
                            (b.kills - 1)}
              : b.at;
      kills.push_back({when, b.cluster.v,
                       "[burst] #" + std::to_string(i + 1) + " (cluster " +
                           std::to_string(b.cluster.v) + ")"});
    }
  }
  for (std::size_t i = 0; i < plan.repeats.size(); ++i) {
    const RepeatSpec& r = plan.repeats[i];
    for (std::uint32_t j = 0; j < r.times; ++j) {
      const SimTime when = r.first + r.gap * static_cast<std::int64_t>(j);
      if (when > bound) break;  // the engine clamps these away anyway
      kills.push_back({when, cluster_of(r.victim),
                       "[repeat] #" + std::to_string(i + 1)});
    }
  }
  std::stable_sort(kills.begin(), kills.end(),
                   [](const ScheduledKill& a, const ScheduledKill& b) {
                     return a.at < b.at;
                   });

  // Walk each cluster's kill sequence through a FIFO server: a kill starts
  // when both its scheduled time and the previous recovery allow it.
  std::vector<SimTime> busy_until(topo.cluster_count(), SimTime::zero());
  for (const ScheduledKill& k : kills) {
    const SimTime start = std::max(k.at, busy_until[k.cluster]);
    HC3I_CHECK(
        start <= bound,
        "campaign " + k.injector + ": kill scheduled at " + to_string(k.at) +
            " queues behind cluster " + std::to_string(k.cluster) +
            "'s earlier recoveries until " + to_string(start) +
            ", past the quiesce bound " + to_string(bound) +
            " — the same-cluster queue cannot drain (estimated recovery " +
            to_string(recovery_estimate(k.cluster)) +
            "; widen the burst window or thin the kills)");
    busy_until[k.cluster] = start + recovery_estimate(k.cluster);
  }
}

}  // namespace hc3i::fault
