// Fault-campaign subsystem tests: declarative injector semantics, campaign
// determinism (same seed + same campaign => byte-identical counter dumps),
// the legacy ScriptedFailure/auto_failures shims, the quiesce-bound
// rejection, recovery telemetry attribution, the report's incident table
// and the campaign config parser.

#include <gtest/gtest.h>

#include "config/parser.hpp"
#include "config/presets.hpp"
#include "driver/report.hpp"
#include "driver/run.hpp"
#include "fault/campaign.hpp"
#include "fault/engine.hpp"
#include "test_util.hpp"

namespace hc3i::testing {
namespace {

driver::RunOptions small_opts(std::size_t clusters = 2,
                              std::uint32_t nodes = 3,
                              SimTime total = hours(1)) {
  driver::RunOptions opts;
  opts.spec = config::small_test_spec(clusters, nodes);
  opts.spec.application.total_time = total;
  for (auto& t : opts.spec.timers.clusters) t.clc_period = minutes(10);
  return opts;
}

// ---------------------------------------------------------------------------
// Injector semantics
// ---------------------------------------------------------------------------

TEST(Campaign, ScriptedKillViaCampaignInjects) {
  auto opts = small_opts();
  opts.campaign.kills.push_back(fault::KillSpec{minutes(25), NodeId{1}});
  const auto result = driver::run_simulation(opts);
  EXPECT_EQ(result.counter("fault.injected"), 1u);
  EXPECT_EQ(result.counter("rollback.faults.c0"), 1u);
  EXPECT_TRUE(result.violations.empty());
  ASSERT_EQ(result.incidents.size(), 1u);
  EXPECT_STREQ(result.incidents[0].source, "scripted");
  EXPECT_EQ(result.incidents[0].victim, NodeId{1});
  EXPECT_EQ(result.incidents[0].cluster, ClusterId{0});
  EXPECT_TRUE(result.incidents[0].recovery_complete);
  EXPECT_GT(result.incidents[0].recovery_latency().ns, 0);
}

TEST(Campaign, KillBeforeFirstClcCommitsRestartsFromInitialState) {
  // At 1 ms every cluster's initial CLC round is still in phase 1, so the
  // store holds no committed CLC.  Paper §4: the first CLC "is the
  // beginning of the application" — the cluster restarts from there and
  // takes its first CLC again.  With a storage backend there is no
  // checkpoint chain to read back for that restart.
  for (const auto protocol : {driver::ProtocolKind::kHc3i,
                              driver::ProtocolKind::kIndependent}) {
    for (const bool storage : {false, true}) {
      SCOPED_TRACE(driver::to_string(protocol) +
                   (storage ? " with a striped-remote store" : ""));
      driver::RunOptions opts;
      opts.spec = config::small_test_spec();
      if (storage) {
        for (config::ClusterSpec& c : opts.spec.topology.clusters) {
          c.storage.kind = config::StorageSpec::Kind::kStripedRemote;
        }
      }
      opts.protocol = protocol;
      opts.validate = true;
      opts.campaign.kills.push_back(
          fault::KillSpec{milliseconds(1), NodeId{3}});
      const auto result = driver::run_simulation(opts);
      EXPECT_EQ(result.counter("fault.injected"), 1u);
      EXPECT_EQ(result.counter("rollback.faults.c0"), 1u);
      EXPECT_EQ(result.counter("rollback.cascade"), 0u);
      EXPECT_EQ(result.counter("clc.initial.c0"), 1u);
      EXPECT_EQ(result.counter("clc.initial.c1"), 1u);
      EXPECT_EQ(result.counter("ckpt.bytes_written") > 0, storage);
      EXPECT_EQ(result.counter("recovery.read_us"), 0u);
      EXPECT_TRUE(result.violations.empty());
      ASSERT_EQ(result.incidents.size(), 1u);
      EXPECT_TRUE(result.incidents[0].recovery_complete);
    }
  }
}

TEST(Campaign, BurstSerialisesRackLoss) {
  auto opts = small_opts(2, 4);
  fault::BurstSpec burst;
  burst.cluster = ClusterId{1};
  burst.kills = 3;
  burst.at = minutes(20);
  burst.window = minutes(2);
  opts.campaign.bursts.push_back(burst);
  const auto result = driver::run_simulation(opts);
  // Every kill of the burst lands (deferred if mid-recovery, never lost)...
  EXPECT_EQ(result.counter("fault.injected"), 3u);
  EXPECT_EQ(result.counter("rollback.faults.c1"), 3u);
  EXPECT_EQ(result.counter("rollback.faults.c0"), 0u);
  EXPECT_TRUE(result.violations.empty());
  ASSERT_EQ(result.incidents.size(), 3u);
  std::uint32_t prev_victim = 0;
  for (const fault::Incident& inc : result.incidents) {
    EXPECT_STREQ(inc.source, "burst");
    EXPECT_EQ(inc.cluster, ClusterId{1});
    EXPECT_TRUE(inc.recovery_complete);
    // ...one fault at a time: windows are disjoint and ordered.
    EXPECT_GT(inc.victim.v, prev_victim);
    prev_victim = inc.victim.v;
  }
  EXPECT_LE(result.incidents.back().injected_at,
            minutes(22) + seconds(30));  // window + deferral slack
}

TEST(Campaign, RepeatOffenderFailsTwice) {
  auto opts = small_opts(2, 3);
  opts.campaign.repeats.push_back(
      fault::RepeatSpec{NodeId{2}, 2, minutes(15), minutes(20)});
  const auto result = driver::run_simulation(opts);
  EXPECT_EQ(result.counter("fault.injected"), 2u);
  ASSERT_EQ(result.incidents.size(), 2u);
  for (const fault::Incident& inc : result.incidents) {
    EXPECT_STREQ(inc.source, "repeat");
    EXPECT_EQ(inc.victim, NodeId{2});
  }
  EXPECT_TRUE(result.violations.empty());
}

TEST(Campaign, PerClusterStreamOnlyHitsItsCluster) {
  auto opts = small_opts(2, 3, hours(2));
  fault::StreamSpec stream;
  stream.cluster = ClusterId{1};
  stream.mtbf = minutes(20);
  opts.campaign.streams.push_back(stream);
  const auto result = driver::run_simulation(opts);
  EXPECT_GE(result.counter("fault.injected"), 1u);
  EXPECT_EQ(result.counter("rollback.faults.c0"), 0u);
  EXPECT_EQ(result.counter("rollback.faults.c1"),
            result.counter("fault.injected"));
  EXPECT_TRUE(result.violations.empty());
  for (const fault::Incident& inc : result.incidents) {
    EXPECT_STREQ(inc.source, "stream");
    EXPECT_EQ(inc.cluster, ClusterId{1});
  }
}

TEST(Campaign, MixedInjectorsStayConsistentAcrossSeeds) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    auto opts = small_opts(3, 3, hours(2));
    opts.seed = seed;
    opts.campaign.kills.push_back(fault::KillSpec{minutes(15), NodeId{4}});
    fault::StreamSpec stream;
    stream.cluster = ClusterId{0};
    stream.mtbf = minutes(25);
    stream.start = minutes(30);
    opts.campaign.streams.push_back(stream);
    fault::BurstSpec burst;
    burst.cluster = ClusterId{2};
    burst.kills = 2;
    burst.at = minutes(50);
    burst.window = minutes(1);
    opts.campaign.bursts.push_back(burst);
    opts.campaign.repeats.push_back(
        fault::RepeatSpec{NodeId{1}, 2, minutes(70), minutes(15)});
    const auto result = driver::run_simulation(opts);
    EXPECT_GE(result.counter("fault.injected"), 5u) << "seed " << seed;
    EXPECT_TRUE(result.violations.empty()) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------------
// Phase-targeted triggers
// ---------------------------------------------------------------------------

TEST(Campaign, PhaseTriggerKillsBetweenPhase1AckAndCommit) {
  // The declarative form of Rollback.FailureBetweenPhase1AcksLeavesNoStale-
  // Ddv's hand-built race: a huge state size stretches the replica-store
  // phase to seconds, the trigger fires after the round's first phase-1 ack
  // and the detection delay (50 ms) lands the rollback well before the
  // remaining acks — the round aborts mid-2PC.
  config::RunSpec spec = tiny_spec(2, 3);
  spec.application.state_bytes = 50 * 1024 * 1024;
  MiniWorld w(spec, 3);
  w.settle(minutes(2));  // initial CLCs committed

  fault::Campaign plan;
  fault::PhaseTriggerSpec trigger;
  trigger.cluster = ClusterId{0};
  trigger.phase = fault::Phase::kPhase1Acks;
  trigger.after_acks = 1;
  trigger.occurrence = 1;
  trigger.victim = NodeId{2};
  trigger.not_before = minutes(1);  // skip the initial t=0 rounds
  plan.phase_triggers.push_back(trigger);
  fault::CampaignEngine engine(w.fed, w.runtime.get(), plan,
                               w.spec_.application.total_time);
  engine.arm();

  // A fresh C1 SN forces a CLC round in C0; the trigger should abort it.
  w.send(NodeId{3}, NodeId{0});
  w.settle(minutes(5));
  engine.finalize();

  EXPECT_EQ(w.registry.get("fault.injected"), 1u);
  EXPECT_EQ(w.registry.get("rollback.faults.c0"), 1u);
  ASSERT_EQ(engine.telemetry().incidents().size(), 1u);
  const fault::Incident& inc = engine.telemetry().incidents()[0];
  EXPECT_STREQ(inc.source, "phase");
  EXPECT_EQ(inc.victim, NodeId{2});
  EXPECT_TRUE(inc.recovery_complete);
  // The aborted round leaked nothing: C0 agrees cluster-wide and its stored
  // DDV entries for C1 never exceed what C1 actually committed.
  const auto* first = w.runtime->cluster_agents(ClusterId{0}).front();
  for (const auto* a : w.runtime->cluster_agents(ClusterId{0})) {
    EXPECT_TRUE(a->ddv() == first->ddv());
    EXPECT_EQ(a->sn(), first->sn());
    EXPECT_FALSE(a->in_round());
  }
  for (const auto& rec : w.runtime->store(ClusterId{0}).records()) {
    EXPECT_LE(rec.ddv.at(ClusterId{1}), w.agent(NodeId{3}).sn());
  }
  EXPECT_TRUE(w.fed.ledger().validate(false).empty());

  // And the cluster still checkpoints cleanly afterwards.
  const std::uint64_t fresh = w.send(NodeId{3}, NodeId{0});
  w.settle(minutes(3));
  EXPECT_TRUE(w.delivered(NodeId{0}, fresh));
}

TEST(Campaign, CommitTriggerFiresOnNthCommit) {
  auto opts = small_opts(2, 3);
  fault::PhaseTriggerSpec trigger;
  trigger.cluster = ClusterId{1};
  trigger.phase = fault::Phase::kCommit;
  trigger.occurrence = 2;
  trigger.victim = NodeId{4};
  trigger.not_before = minutes(5);
  opts.campaign.phase_triggers.push_back(trigger);
  const auto result = driver::run_simulation(opts);
  EXPECT_EQ(result.counter("fault.injected"), 1u);
  EXPECT_EQ(result.counter("rollback.faults.c1"), 1u);
  EXPECT_TRUE(result.violations.empty());
  ASSERT_EQ(result.incidents.size(), 1u);
  EXPECT_STREQ(result.incidents[0].source, "phase");
  // Fired at the 2nd commit at/after 5min, not at a scripted wall time.
  EXPECT_GE(result.incidents[0].injected_at, minutes(5));
}

TEST(Campaign, PhaseTriggerRejectedForNonHc3iProtocols) {
  auto opts = small_opts();
  opts.protocol = driver::ProtocolKind::kCoordinatedGlobal;
  fault::PhaseTriggerSpec trigger;
  trigger.victim = NodeId{1};
  opts.campaign.phase_triggers.push_back(trigger);
  EXPECT_THROW(driver::run_simulation(opts), CheckFailure);
}

// ---------------------------------------------------------------------------
// Determinism and the legacy shims
// ---------------------------------------------------------------------------

driver::RunOptions determinism_opts(std::uint64_t seed) {
  auto opts = small_opts(3, 3, hours(1));
  opts.seed = seed;
  opts.campaign.kills.push_back(fault::KillSpec{minutes(12), NodeId{4}});
  fault::BurstSpec burst;
  burst.cluster = ClusterId{2};
  burst.kills = 2;
  burst.at = minutes(25);
  burst.window = minutes(1);
  opts.campaign.bursts.push_back(burst);
  fault::PhaseTriggerSpec trigger;
  trigger.cluster = ClusterId{0};
  trigger.phase = fault::Phase::kCommit;
  trigger.occurrence = 3;
  trigger.victim = NodeId{1};
  trigger.not_before = minutes(5);
  opts.campaign.phase_triggers.push_back(trigger);
  fault::StreamSpec stream;
  stream.mtbf = minutes(18);
  stream.start = minutes(35);
  opts.campaign.streams.push_back(stream);
  return opts;
}

TEST(Campaign, SameSeedSameCampaignIsByteIdentical) {
  const auto a = driver::run_simulation(determinism_opts(7));
  const auto b = driver::run_simulation(determinism_opts(7));
  EXPECT_GE(a.counter("fault.injected"), 4u);  // all injector kinds fired
  EXPECT_EQ(a.registry.dump(), b.registry.dump());
  ASSERT_EQ(a.incidents.size(), b.incidents.size());
  for (std::size_t i = 0; i < a.incidents.size(); ++i) {
    EXPECT_EQ(a.incidents[i].injected_at, b.incidents[i].injected_at);
    EXPECT_EQ(a.incidents[i].victim, b.incidents[i].victim);
    EXPECT_STREQ(a.incidents[i].source, b.incidents[i].source);
    EXPECT_EQ(a.incidents[i].cost.replayed_msgs,
              b.incidents[i].cost.replayed_msgs);
  }
}

TEST(Campaign, ScriptedFailureShimMatchesExplicitCampaign) {
  // The legacy RunOptions::scripted_failures path must reproduce, byte for
  // byte, what the equivalent campaign produces (it *is* the same engine —
  // the shim folds into campaign.kills, preserving PR-era behaviour).
  auto legacy = small_opts(2, 4);
  legacy.seed = 5;
  legacy.scripted_failures.push_back({minutes(20), NodeId{1}});
  legacy.scripted_failures.push_back({minutes(40), NodeId{5}});

  auto campaign = small_opts(2, 4);
  campaign.seed = 5;
  campaign.campaign.kills.push_back(fault::KillSpec{minutes(20), NodeId{1}});
  campaign.campaign.kills.push_back(fault::KillSpec{minutes(40), NodeId{5}});

  const auto a = driver::run_simulation(legacy);
  const auto b = driver::run_simulation(campaign);
  EXPECT_EQ(a.counter("fault.injected"), 2u);
  EXPECT_EQ(a.registry.dump(), b.registry.dump());
  EXPECT_EQ(a.incidents.size(), b.incidents.size());
}

TEST(Campaign, AutoFailuresShimMatchesFederationWideStream) {
  // auto_failures folds into stream index 0, whose derived RNG id matches
  // the pre-campaign Federation injector — so the shim and the explicit
  // federation-wide stream are the same run.
  auto legacy = small_opts(2, 3, hours(2));
  legacy.seed = 3;
  legacy.spec.topology.mtbf = minutes(25);
  legacy.auto_failures = true;

  auto campaign = small_opts(2, 3, hours(2));
  campaign.seed = 3;
  campaign.spec.topology.mtbf = minutes(25);  // same topology bytes
  fault::StreamSpec stream;
  stream.mtbf = minutes(25);
  stream.stop = hours(2);  // the quiesce bound the shim applies
  campaign.campaign.streams.push_back(stream);

  const auto a = driver::run_simulation(legacy);
  const auto b = driver::run_simulation(campaign);
  EXPECT_GE(a.counter("fault.injected"), 1u);
  EXPECT_EQ(a.registry.dump(), b.registry.dump());
}

// ---------------------------------------------------------------------------
// Quiesce bound
// ---------------------------------------------------------------------------

TEST(Campaign, ScriptedKillPastQuiesceBoundIsRejected) {
  // Pessimistic logging replays lost work in simulated time; the driver
  // bounds injections at horizon - (max CLC period + margin).  A script
  // inside that margin used to strand pre-failure sends as ghosts — now it
  // is rejected up front with a clear CheckFailure.
  auto opts = small_opts(2, 3, hours(1));  // bound = 60 - (10 + 10) = 40min
  opts.protocol = driver::ProtocolKind::kPessimisticLog;
  opts.campaign.kills.push_back({minutes(50), NodeId{1}});
  try {
    driver::run_simulation(opts);
    FAIL() << "expected CheckFailure";
  } catch (const CheckFailure& e) {
    EXPECT_NE(std::string(e.what()).find("quiesce bound"), std::string::npos)
        << e.what();
  }
}

TEST(Campaign, ScriptedKillAtQuiesceBoundIsAccepted) {
  auto opts = small_opts(2, 3, hours(1));
  opts.protocol = driver::ProtocolKind::kPessimisticLog;
  opts.campaign.kills.push_back({minutes(40), NodeId{1}});  // == bound
  const auto result = driver::run_simulation(opts);
  EXPECT_EQ(result.counter("fault.injected"), 1u);
  EXPECT_TRUE(result.violations.empty());
}

TEST(Campaign, DeferredKillPushedPastBoundIsDroppedNotInjected) {
  // arm() checks *scheduled* times, but a deferral can push a kill past
  // the quiesce bound: a huge process state makes the first burst kill's
  // recovery (state transfer over the SAN) outlast the bound, so the
  // second kill — legal on paper at exactly the bound — would fire far
  // beyond it.  It must be dropped and counted, not injected.
  auto opts = small_opts(2, 3, hours(1));  // HC3I: bound == horizon (60min)
  opts.spec.application.state_bytes = 600ull * 1024 * 1024;  // ~63s restore
  fault::BurstSpec burst;
  burst.cluster = ClusterId{0};
  burst.kills = 2;
  burst.at = minutes(59) + seconds(30);
  burst.window = seconds(30);  // second kill lands at the bound exactly
  opts.campaign.bursts.push_back(burst);
  const auto result = driver::run_simulation(opts);
  EXPECT_EQ(result.counter("fault.injected"), 1u);
  EXPECT_EQ(result.counter("fault.queued_same_cluster"), 1u);
  EXPECT_EQ(result.counter("fault.skipped_quiesce"), 1u);
  EXPECT_TRUE(result.violations.empty());
}

TEST(Campaign, RepeatOccurrencesPastBoundAreClamped) {
  auto opts = small_opts(2, 3, hours(1));
  opts.protocol = driver::ProtocolKind::kPessimisticLog;  // bound = 40min
  opts.campaign.repeats.push_back(
      fault::RepeatSpec{NodeId{1}, 4, minutes(20), minutes(15)});
  const auto result = driver::run_simulation(opts);
  // Occurrences at 20 and 35 min fire; 50 and 65 min are clamped away.
  EXPECT_EQ(result.counter("fault.injected"), 2u);
  EXPECT_TRUE(result.violations.empty());
}

// ---------------------------------------------------------------------------
// Telemetry attribution and the report
// ---------------------------------------------------------------------------

TEST(Campaign, IncidentWindowsPartitionTheRunCosts) {
  auto opts = small_opts(3, 3, hours(2));
  opts.hc3i.transitive_ddv = true;
  opts.campaign.kills.push_back(fault::KillSpec{minutes(20), NodeId{1}});
  opts.campaign.kills.push_back(fault::KillSpec{minutes(60), NodeId{4}});
  opts.campaign.kills.push_back(fault::KillSpec{minutes(90), NodeId{7}});
  const auto result = driver::run_simulation(opts);
  ASSERT_EQ(result.incidents.size(), 3u);
  for (const fault::Incident& inc : result.incidents) {
    EXPECT_TRUE(inc.recovery_complete);
    EXPECT_GE(inc.cost.rollbacks, 1u);
    EXPECT_GE(inc.cost.nodes_rolled_back, 3u);  // at least the faulty cluster
  }
  EXPECT_STREQ(result.fault_summary.residual.source, "post-campaign");
  expect_incident_rows_sum_to_run_cost(result);
  // Serial incidents: never more than one recovery in flight.
  EXPECT_EQ(result.fault_summary.max_overlap, 1u);
  EXPECT_TRUE(result.violations.empty());
}

TEST(Campaign, ReportRendersRecoveryCountersAndIncidentTable) {
  auto opts = small_opts(2, 3);
  opts.campaign.kills.push_back(fault::KillSpec{minutes(25), NodeId{1}});
  const auto result = driver::run_simulation(opts);
  const std::string report = driver::render_report(result, 2);
  for (const char* needle :
       {"fault incidents (recovery telemetry)", "recovery latency",
        "node restores", "restores that lost work", "scripted",
        "replay msgs", "lost work"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
}

// ---------------------------------------------------------------------------
// Campaign config parsing
// ---------------------------------------------------------------------------

fault::Campaign full_campaign() {
  fault::Campaign plan;
  plan.kills.push_back(fault::KillSpec{minutes(6), NodeId{5}});
  plan.kills.push_back(fault::KillSpec{minutes(9), NodeId{0}});
  fault::StreamSpec fed_stream;
  fed_stream.mtbf = minutes(8);
  plan.streams.push_back(fed_stream);
  fault::StreamSpec cl_stream;
  cl_stream.cluster = ClusterId{1};
  cl_stream.mtbf = minutes(3);
  cl_stream.start = minutes(5);
  cl_stream.stop = minutes(25);
  plan.streams.push_back(cl_stream);
  fault::BurstSpec burst;
  burst.cluster = ClusterId{1};
  burst.kills = 3;
  burst.at = minutes(12);
  burst.window = minutes(2);
  burst.first_victim = 1;
  plan.bursts.push_back(burst);
  plan.repeats.push_back(fault::RepeatSpec{NodeId{7}, 3, minutes(10), minutes(6)});
  fault::PhaseTriggerSpec trigger;
  trigger.cluster = ClusterId{0};
  trigger.phase = fault::Phase::kPhase1Acks;
  trigger.after_acks = 2;
  trigger.occurrence = 4;
  trigger.victim = NodeId{2};
  trigger.not_before = minutes(1);
  plan.phase_triggers.push_back(trigger);
  return plan;
}

// full_campaign() as a campaign file: every section and every key.
constexpr const char* kFullCampaignText = R"(
[kill]
at = 6min
node = 5

[kill]
at = 9min
node = 0

[stream]
mtbf = 8min

[stream]
mtbf = 3min
cluster = 1
start = 5min
stop = 25min

[burst]
cluster = 1
kills = 3
at = 12min
window = 2min
first_victim = 1

[repeat]
node = 7
times = 3
first = 10min
gap = 6min

[phase_trigger]
cluster = 0
phase = phase1_acks
node = 2
after_acks = 2
occurrence = 4
not_before = 1min
)";

TEST(CampaignConfig, ParsesEverySectionAndKey) {
  const config::TopologySpec topo = config::small_test_spec(2, 4).topology;
  EXPECT_EQ(config::parse_campaign(kFullCampaignText, topo, "<full>"),
            full_campaign());
}

TEST(CampaignConfig, DefaultsAreOptional) {
  const config::TopologySpec topo = config::small_test_spec(2, 4).topology;
  const auto plan = config::parse_campaign(
      "[kill]\nat = 5min\nnode = 3\n"
      "[stream]\nmtbf = 4min\n"
      "[phase_trigger]\ncluster = 0\nphase = commit\nnode = 1\n",
      topo, "<min>");
  ASSERT_EQ(plan.kills.size(), 1u);
  ASSERT_EQ(plan.streams.size(), 1u);
  EXPECT_FALSE(plan.streams[0].cluster.has_value());
  EXPECT_EQ(plan.streams[0].start, SimTime::zero());
  EXPECT_TRUE(plan.streams[0].stop.is_infinite());
  ASSERT_EQ(plan.phase_triggers.size(), 1u);
  EXPECT_EQ(plan.phase_triggers[0].phase, fault::Phase::kCommit);
  EXPECT_EQ(plan.phase_triggers[0].after_acks, 1u);
  EXPECT_EQ(plan.phase_triggers[0].occurrence, 1u);
}

TEST(CampaignConfig, RejectsBadInput) {
  const config::TopologySpec topo = config::small_test_spec(2, 4).topology;
  // Unknown section.
  EXPECT_THROW(config::parse_campaign("[explode]\nat = 1min\n", topo, "<t>"),
               config::ParseError);
  // Unknown phase name.
  EXPECT_THROW(config::parse_campaign(
                   "[phase_trigger]\ncluster = 0\nphase = sometime\nnode = 1\n",
                   topo, "<t>"),
               config::ParseError);
  // Victim out of range (validation folded into ParseError with origin).
  EXPECT_THROW(config::parse_campaign("[kill]\nat = 1min\nnode = 99\n", topo,
                                      "<t>"),
               config::ParseError);
  // Burst larger than its cluster.
  EXPECT_THROW(config::parse_campaign(
                   "[burst]\ncluster = 0\nkills = 9\nat = 1min\nwindow = 1min\n",
                   topo, "<t>"),
               config::ParseError);
  // The removed federation-wide serialization knob fails loudly.
  EXPECT_THROW(
      config::parse_campaign("[options]\nserialize_faults = true\n", topo,
                             "<t>"),
      config::ParseError);
}

TEST(CampaignConfig, ValidateCatchesStructuralMistakes) {
  const config::TopologySpec topo = config::small_test_spec(2, 4).topology;
  fault::Campaign plan;
  fault::StreamSpec stream;  // mtbf left at zero
  plan.streams.push_back(stream);
  EXPECT_THROW(plan.validate(topo), CheckFailure);

  plan = {};
  plan.repeats.push_back(fault::RepeatSpec{NodeId{1}, 3, minutes(5),
                                           SimTime::zero()});  // gap 0, times 3
  EXPECT_THROW(plan.validate(topo), CheckFailure);

  // A phase1_acks trigger whose after_acks >= cluster size has no
  // ack/commit window (the last ack commits synchronously) — it would
  // either never match or fire after the commit it claims to precede.
  plan = {};
  fault::PhaseTriggerSpec trigger;
  trigger.cluster = ClusterId{0};
  trigger.phase = fault::Phase::kPhase1Acks;
  trigger.after_acks = 4;  // == cluster size
  trigger.victim = NodeId{1};
  plan.phase_triggers.push_back(trigger);
  EXPECT_THROW(plan.validate(topo), CheckFailure);
  plan.phase_triggers[0].after_acks = 3;  // strictly inside the window
  plan.validate(topo);
}

}  // namespace
}  // namespace hc3i::testing
