#include "fault/campaign.hpp"

#include <algorithm>
#include <cstdio>
#include <string>
#include <string_view>
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

// The queue-bound message compares times that can sit a millisecond apart
// (a kill 1 ms before the bound), which to_string's 0.1 s rounding past a
// minute would print alike.
std::string ms_text(SimTime t) {
  const long long ms = t.ns / 1'000'000;
  char buf[48];
  std::snprintf(buf, sizeof buf, "%lldh%02lldm%02lld.%03llds", ms / 3'600'000,
                ms / 60'000 % 60, ms / 1'000 % 60, ms % 1'000);
  return buf;
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

std::vector<TimedKill> timed_kills(const Campaign& plan,
                                   const config::TopologySpec& topo,
                                   SimTime bound) {
  std::vector<std::uint32_t> first_node(topo.cluster_count() + 1, 0);
  for (std::size_t c = 0; c < topo.cluster_count(); ++c) {
    first_node[c + 1] = first_node[c] + topo.clusters[c].nodes;
  }
  const auto cluster_of = [&](NodeId n) {
    const auto next =
        std::upper_bound(first_node.begin(), first_node.end(), n.v);
    return ClusterId{static_cast<std::uint32_t>(next - first_node.begin() - 1)};
  };

  std::vector<TimedKill> kills;
  for (std::size_t i = 0; i < plan.kills.size(); ++i) {
    const KillSpec& k = plan.kills[i];
    kills.push_back({k.at, k.victim, cluster_of(k.victim), "scripted", i});
  }
  for (std::size_t i = 0; i < plan.bursts.size(); ++i) {
    const BurstSpec& b = plan.bursts[i];
    const std::uint32_t size = topo.clusters[b.cluster.v].nodes;
    for (std::uint32_t j = 0; j < b.kills; ++j) {
      // Kills spaced evenly across [at, at + window]; the cluster's FIFO
      // serialises whatever lands inside its recovery.
      const SimTime when =
          b.kills > 1 ? SimTime{b.at.ns + (b.window.ns *
                                           static_cast<std::int64_t>(j)) /
                                              (b.kills - 1)}
                      : b.at;
      const NodeId victim{first_node[b.cluster.v] +
                          (b.first_victim + j) % size};
      kills.push_back({when, victim, b.cluster, "burst", i});
    }
  }
  for (std::size_t i = 0; i < plan.repeats.size(); ++i) {
    const RepeatSpec& r = plan.repeats[i];
    for (std::uint32_t j = 0; j < r.times; ++j) {
      const SimTime when = r.first + r.gap * static_cast<std::int64_t>(j);
      if (when > bound) break;  // clamp occurrences past the quiesce bound
      kills.push_back({when, r.victim, cluster_of(r.victim), "repeat", i});
    }
  }
  return kills;
}

void check_queue_bounds(const Campaign& plan, const config::RunSpec& spec,
                        SimTime bound) {
  std::vector<TimedKill> kills = timed_kills(plan, spec.topology, bound);
  std::stable_sort(kills.begin(), kills.end(),
                   [](const TimedKill& a, const TimedKill& b) {
                     return a.at < b.at;
                   });

  // Walk each cluster's kill sequence through a FIFO server: a kill starts
  // when both its scheduled time and the previous recovery allow it.  The
  // service time is failure detection plus the state transfer that restores
  // the victim from its neighbour's replica.
  std::vector<SimTime> busy_until(spec.topology.cluster_count(),
                                  SimTime::zero());
  for (const TimedKill& k : kills) {
    const SimTime recovery = spec.timers.detection_delay +
                             config::state_transfer_time(spec, k.cluster);
    const SimTime start = std::max(k.at, busy_until[k.cluster.v]);
    // Name the injector by its campaign-file section.
    const std::string_view source = k.source;
    HC3I_CHECK(
        start <= bound,
        "campaign [" + std::string(source == "scripted" ? "kill" : source) +
            "] #" + std::to_string(k.injector + 1) + ": kill scheduled at " +
            ms_text(k.at) + " queues behind cluster " +
            std::to_string(k.cluster.v) + "'s earlier recoveries until " +
            ms_text(start) + ", past the quiesce bound " + ms_text(bound) +
            " — the same-cluster queue cannot drain (estimated recovery " +
            to_string(recovery) +
            "; widen the burst window or thin the kills)");
    busy_until[k.cluster.v] = start + recovery;
  }
}

}  // namespace hc3i::fault
