// Sharded-sweep subsystem tests.
//
// The load-bearing property: a run executed inside batch::Runner — any shard
// count, any interleaving, warm or cold worker pools — produces a counter
// dump byte-identical to the same (spec, seed) executed solo on a fresh
// single-threaded context.  The grid here (3 topologies x 2 campaigns x
// 5 seeds) is the ISSUE's shard-isolation suite, compared at threads = 1, 4
// and 8; the same binary runs under ThreadSanitizer in CI to check the
// no-sharing claim at the memory level.
//
// Alongside it: the pool-isolation regressions for the PayloadArena refactor
// (owner tags refuse cross-arena recycling, blocks may outlive their arena,
// the no-arena path is plain heap traffic — the static-teardown leak the
// old function-local-static free lists needed a workaround for is now
// structurally impossible), and the sweep config kind's parser.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "batch/report.hpp"
#include "batch/runner.hpp"
#include "batch/sweep.hpp"
#include "config/parser.hpp"
#include "config/spec.hpp"
#include "driver/run.hpp"
#include "driver/sim_context.hpp"
#include "fault/campaign.hpp"
#include "fault/telemetry.hpp"
#include "proto/payload_pool.hpp"
#include "stats/registry.hpp"
#include "util/check.hpp"

namespace hc3i::testing {
namespace {

// ---------------------------------------------------------------------------
// Shard isolation: sharded == solo, byte for byte
// ---------------------------------------------------------------------------

/// The ISSUE grid: 3 topologies x 2 campaigns x 5 seeds = 30 runs.  The
/// explicit campaign (a scripted early kill of node 1) is valid on every
/// topology point, so the same plan object is shared across the cells.
batch::SweepSpec isolation_sweep() {
  batch::SweepSpec sweep;
  sweep.topologies = {batch::small_topology(2, 3), batch::small_topology(3, 2),
                      batch::small_topology(2, 4)};
  fault::Campaign plan;
  plan.kills.push_back(fault::KillSpec{minutes(20), NodeId{1}});
  sweep.campaigns = {batch::no_campaign(),
                     batch::explicit_campaign("kill_n1", std::move(plan))};
  sweep.seeds = {1, 2, 3, 4, 5};
  return sweep;
}

/// Execute every case solo — fresh run-scoped context each time, exactly the
/// options the runner would use — and collect the counter dumps.
std::vector<std::string> solo_dumps(const std::vector<batch::RunCase>& cases) {
  std::vector<std::string> dumps;
  dumps.reserve(cases.size());
  for (const batch::RunCase& rc : cases) {
    driver::RunOptions opts = rc.options();
    opts.validate = false;  // match run_case(): violations recorded, not thrown
    const driver::RunResult result = driver::run_simulation(opts);
    EXPECT_TRUE(result.violations.empty()) << rc.name();
    dumps.push_back(result.registry.dump());
  }
  return dumps;
}

TEST(ShardIsolation, ShardedDumpsMatchSoloAtEveryThreadCount) {
  const batch::SweepSpec sweep = isolation_sweep();
  const std::vector<batch::RunCase> cases = batch::expand(sweep);
  ASSERT_EQ(cases.size(), 30u);
  const std::vector<std::string> solo = solo_dumps(cases);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{8}}) {
    batch::RunnerOptions ropts;
    ropts.threads = threads;
    ropts.keep_dumps = true;
    const batch::BatchReport report = batch::Runner(ropts).run(cases);
    ASSERT_EQ(report.cases.size(), cases.size());
    EXPECT_EQ(report.failures(), 0u);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      EXPECT_TRUE(report.cases[i].ok) << cases[i].name();
      EXPECT_EQ(report.cases[i].dump, solo[i])
          << cases[i].name() << " diverged at threads=" << threads;
    }
  }
}

/// The storage axis under sharding: capture stalls and chain reads run on
/// the simulated clock, so a storage-charged grid must shard as cleanly as
/// the plain one — byte-identical to solo at every thread count.
batch::SweepSpec storage_sweep() {
  batch::SweepSpec sweep;
  sweep.topologies = {batch::scale_topology(2, 4, minutes(20))};
  sweep.campaigns = {batch::no_campaign(), batch::reference_campaign()};
  config::StorageSpec local;
  local.kind = config::StorageSpec::Kind::kLocalDisk;
  config::StorageSpec striped;
  striped.kind = config::StorageSpec::Kind::kStripedRemote;
  striped.incremental = false;
  sweep.storage = {batch::storage_point("local", local),
                   batch::storage_point("striped-full", striped, minutes(2))};
  sweep.seeds = {1, 2, 3};
  return sweep;
}

TEST(ShardIsolation, StorageChargedGridMatchesSoloAtEveryThreadCount) {
  const std::vector<batch::RunCase> cases = batch::expand(storage_sweep());
  ASSERT_EQ(cases.size(), 12u);
  const std::vector<std::string> solo = solo_dumps(cases);

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4},
                                    std::size_t{8}}) {
    batch::RunnerOptions ropts;
    ropts.threads = threads;
    ropts.keep_dumps = true;
    const batch::BatchReport report = batch::Runner(ropts).run(cases);
    EXPECT_EQ(report.failures(), 0u);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      EXPECT_EQ(report.cases[i].dump, solo[i])
          << cases[i].name() << " diverged at threads=" << threads;
      // Every storage-charged case actually exercised the cost model.
      EXPECT_GT(report.cases[i].cost.ckpt_bytes_written, 0u)
          << cases[i].name();
    }
  }
}

/// A case's cost is the record a solo run of the same (spec, seed) reads
/// from its own registry and ledger, field for field.
TEST(ShardIsolation, CaseCostIsTheSoloRunsRecoveryCost) {
  const std::vector<batch::RunCase> cases = batch::expand(storage_sweep());
  batch::RunnerOptions ropts;
  ropts.threads = 2;
  const batch::BatchReport report = batch::Runner(ropts).run(cases);
  ASSERT_EQ(report.cases.size(), cases.size());
  bool any_rollback = false;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    driver::RunOptions opts = cases[i].options();
    opts.validate = false;
    const driver::RunResult solo = driver::run_simulation(opts);
    const fault::RecoveryCost want = fault::RecoveryCost::read(
        solo.registry, solo.counter("ledger.undone_events"));
    const fault::RecoveryCost& got = report.cases[i].cost;
    for (const fault::CostCount& f : fault::kCostCounts) {
      EXPECT_EQ(got.*f.field, want.*f.field)
          << cases[i].name() << ": " << f.counter;
    }
    EXPECT_EQ(got.lost_work_s, want.lost_work_s) << cases[i].name();
    any_rollback |= got.rollbacks > 0;
  }
  EXPECT_TRUE(any_rollback);  // the faulty cells really cost something
}

TEST(SweepExpand, StorageAxisMultipliesTheGridAndDerivesSpecs) {
  const batch::SweepSpec sweep = storage_sweep();
  EXPECT_EQ(sweep.runs(), 12u);
  const std::vector<batch::RunCase> cases = batch::expand(sweep);
  EXPECT_EQ(cases[0].name(), "scale_2x4/none/local s=1");
  EXPECT_EQ(cases[3].name(), "scale_2x4/none/striped-full s=1");
  // The derived spec carries the point's backend and interval override; the
  // base topology spec is untouched.
  EXPECT_EQ(cases[0].spec->topology.clusters[0].storage.kind,
            config::StorageSpec::Kind::kLocalDisk);
  EXPECT_EQ(cases[3].spec->topology.clusters[0].storage.kind,
            config::StorageSpec::Kind::kStripedRemote);
  EXPECT_EQ(cases[3].spec->timers.clusters[0].clc_period, minutes(2));
  EXPECT_EQ(sweep.topologies[0].spec->topology.clusters[0].storage.kind,
            config::StorageSpec::Kind::kNone);
  // Seeds of one (topology, storage) cell share the derived spec.
  EXPECT_EQ(cases[3].spec, cases[4].spec);
  EXPECT_NE(cases[0].spec, cases[3].spec);
}

TEST(SweepConfig, ParsesStorageSections) {
  const char* text =
      "[topology t]\n"
      "preset = scale\n"
      "clusters = 2\n"
      "nodes = 4\n"
      "minutes = 10\n"
      "\n"
      "[storage fast]\n"
      "kind = striped-remote\n"
      "latency = 2ms\n"
      "write_bandwidth = 500MB/s\n"
      "read_bandwidth = 1GB/s\n"
      "stripe_width = 8\n"
      "incremental = 0\n"
      "interval = 90s\n"
      "state_size = 32MiB\n"
      "\n"
      "[storage slow]\n"
      "kind = local-disk\n";
  const batch::SweepSpec sweep = batch::parse_sweep(text, "test.ini");
  ASSERT_EQ(sweep.storage.size(), 2u);
  const batch::StoragePoint& fast = sweep.storage[0];
  EXPECT_EQ(fast.name, "fast");
  EXPECT_EQ(fast.storage.kind, config::StorageSpec::Kind::kStripedRemote);
  EXPECT_EQ(fast.storage.latency, milliseconds(2));
  EXPECT_EQ(fast.storage.stripe_width, 8u);
  EXPECT_FALSE(fast.storage.incremental);
  EXPECT_EQ(fast.clc_period, seconds(90));
  EXPECT_EQ(fast.state_bytes, 32ull << 20);
  EXPECT_EQ(sweep.storage[1].storage.kind,
            config::StorageSpec::Kind::kLocalDisk);
  EXPECT_EQ(sweep.runs(), 2u);
  // Bad storage sections are rejected with the file origin.
  EXPECT_THROW(batch::parse_sweep("[topology t]\npreset = small\n"
                                  "[storage s]\nkind = carrier-pigeon\n"),
               config::ParseError);
  EXPECT_THROW(batch::parse_sweep("[topology t]\npreset = small\n"
                                  "[storage s]\nfrobnicate = 1\n"),
               config::ParseError);
}

TEST(ShardIsolation, WarmArenaRunsAreByteIdentical) {
  // Pool warmth is a throughput knob, never an observable: run 2 inside the
  // same worker context pops recycled blocks where run 1 paid heap traffic,
  // and the dumps must not be able to tell.
  const batch::RunCase rc = batch::expand(isolation_sweep())[7];
  driver::RunOptions opts = rc.options();
  opts.validate = false;
  driver::SimContext ctx;
  const std::string cold = driver::run_simulation(opts, ctx).registry.dump();
  const std::uint64_t reused_before = ctx.arena().reused_blocks();
  const std::string warm = driver::run_simulation(opts, ctx).registry.dump();
  EXPECT_GT(ctx.arena().reused_blocks(), reused_before)
      << "second run should hit the warmed pool";
  EXPECT_EQ(cold, warm);
}

TEST(ShardIsolation, ReportIsInGridOrderWithConsistentWorkerStats) {
  batch::SweepSpec sweep = isolation_sweep();
  sweep.seeds = {1, 2};  // 12 runs is plenty for a shape test
  const std::vector<batch::RunCase> cases = batch::expand(sweep);
  batch::RunnerOptions ropts;
  ropts.threads = 4;
  const batch::BatchReport report = batch::Runner(ropts).run(cases);

  ASSERT_EQ(report.cases.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    EXPECT_EQ(report.cases[i].index, i);
    EXPECT_EQ(report.cases[i].topology, cases[i].topology);
    EXPECT_EQ(report.cases[i].campaign, cases[i].campaign);
    EXPECT_EQ(report.cases[i].seed, cases[i].seed);
    EXPECT_TRUE(report.cases[i].dump.empty());  // keep_dumps defaults off
  }
  std::size_t worker_runs = 0;
  for (const batch::WorkerStats& ws : report.workers) worker_runs += ws.runs;
  EXPECT_EQ(worker_runs, cases.size());
  EXPECT_EQ(report.threads, 4u);
}

TEST(Runner, SickCaseDoesNotAbortItsWorker) {
  batch::SweepSpec sweep;
  sweep.topologies = {batch::small_topology(2, 3)};
  sweep.campaigns = {batch::no_campaign()};
  sweep.seeds = {1, 2};
  std::vector<batch::RunCase> cases = batch::expand(sweep);
  // Corrupt case 0 behind expand()'s validation: a kill of a node the
  // topology does not have.  The campaign engine rejects it at arm time;
  // the runner must fold that into a failed CaseResult and keep going.
  fault::Campaign bad;
  bad.kills.push_back(fault::KillSpec{minutes(1), NodeId{999}});
  cases[0].plan = std::make_shared<const fault::Campaign>(std::move(bad));

  batch::RunnerOptions ropts;
  ropts.threads = 1;
  const batch::BatchReport report = batch::Runner(ropts).run(cases);
  EXPECT_FALSE(report.cases[0].ok);
  EXPECT_FALSE(report.cases[0].error.empty());
  EXPECT_TRUE(report.cases[1].ok) << report.cases[1].error;
  EXPECT_EQ(report.failures(), 1u);
}

// ---------------------------------------------------------------------------
// Pool isolation: the PayloadArena ownership contract
// ---------------------------------------------------------------------------

/// Stand-in payload type; gets its own per-type pool index like any control
/// payload would.
struct Blob {
  std::uint64_t a{1};
  std::uint64_t b{2};
};

TEST(PayloadPool, HomeReturnParksAndRecycles) {
  proto::PayloadArena arena;
  proto::ScopedPayloadArena scope(arena);
  { auto p = proto::make_pooled<Blob>(); }
  EXPECT_EQ(arena.parked_blocks(), 1u);
  EXPECT_EQ(arena.fresh_blocks(), 1u);
  { auto p = proto::make_pooled<Blob>(); }
  EXPECT_EQ(arena.reused_blocks(), 1u);
  EXPECT_EQ(arena.fresh_blocks(), 1u) << "warm pop must not touch the heap";
}

TEST(PayloadPool, ForeignReturnIsRefusedNotAdopted) {
  if (!proto::kPoolOwnerTagEnabled) {
    GTEST_SKIP() << "owner tags compiled out (release build without "
                    "HC3I_POOL_OWNER_TAG)";
  }
  proto::PayloadArena home;
  proto::PayloadArena other;
  std::shared_ptr<Blob> p;
  {
    proto::ScopedPayloadArena scope(home);
    p = proto::make_pooled<Blob>();
  }
  {
    // Drop the block while a *different* arena is current: it must be
    // heap-freed and counted, never recycled into the wrong free list —
    // that's the cross-shard-recycle tripwire.
    proto::ScopedPayloadArena scope(other);
    p.reset();
    EXPECT_EQ(other.parked_blocks(), 0u);
    EXPECT_EQ(other.foreign_returns(), 1u);
  }
  EXPECT_EQ(home.parked_blocks(), 0u);
}

TEST(PayloadPool, BlockMayOutliveItsArena) {
  // A payload that escapes its run (a held shared_ptr) must stay valid after
  // the owning arena is gone and free cleanly through the heap path.  Under
  // ASan this test is the teardown regression: the old function-local-static
  // free lists needed an intentional-leak workaround here.
  std::shared_ptr<Blob> p;
  {
    proto::PayloadArena arena;
    proto::ScopedPayloadArena scope(arena);
    p = proto::make_pooled<Blob>();
  }
  EXPECT_EQ(p->a, 1u);
  p.reset();  // no arena installed: plain heap free
}

TEST(PayloadPool, NoArenaMeansPlainHeapTraffic) {
  ASSERT_EQ(proto::PayloadArena::current(), nullptr);
  auto p = proto::make_pooled<Blob>();
  EXPECT_EQ(p->b, 2u);
  p.reset();  // nothing parked anywhere, nothing to leak past main()
}

TEST(PayloadPool, ScopesNestAndRestore) {
  proto::PayloadArena outer;
  proto::PayloadArena inner;
  proto::ScopedPayloadArena s1(outer);
  EXPECT_EQ(proto::PayloadArena::current(), &outer);
  {
    proto::ScopedPayloadArena s2(inner);
    EXPECT_EQ(proto::PayloadArena::current(), &inner);
  }
  EXPECT_EQ(proto::PayloadArena::current(), &outer);
}

TEST(PayloadPool, CrossThreadArenasNeverInterleave) {
  // Each thread installs its own arena and churns allocations; with owner
  // tags on, any cross-thread recycle would show as a foreign return (and
  // as a race under the TSan build of this binary).
  auto churn = [] {
    proto::PayloadArena arena;
    proto::ScopedPayloadArena scope(arena);
    std::vector<std::shared_ptr<Blob>> held;
    for (int i = 0; i < 2000; ++i) {
      held.push_back(proto::make_pooled<Blob>());
      if (held.size() > 16) held.clear();
    }
    held.clear();
    EXPECT_EQ(arena.foreign_returns(), 0u);
    EXPECT_GT(arena.reused_blocks(), 0u);
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < 4; ++t) pool.emplace_back(churn);
  for (std::thread& t : pool) t.join();
}

TEST(PayloadPool, ReleaseAllEmptiesTheArena) {
  proto::PayloadArena arena;
  {
    proto::ScopedPayloadArena scope(arena);
    { auto a = proto::make_pooled<Blob>(); }
    { auto b = proto::make_pooled<Blob>(); }
  }
  EXPECT_GT(arena.parked_blocks(), 0u);
  arena.release_all();
  EXPECT_EQ(arena.parked_blocks(), 0u);
}

// ---------------------------------------------------------------------------
// The sweep config kind
// ---------------------------------------------------------------------------

TEST(SweepConfig, ParsesFullFile) {
  const char* text =
      "[sweep]\n"
      "seeds = 2..4\n"
      "protocol = independent\n"
      "\n"
      "[topology tiny]\n"
      "preset = small\n"
      "clusters = 2\n"
      "nodes = 4\n"
      "\n"
      "[topology ring]\n"
      "preset = scale\n"
      "clusters = 5\n"
      "nodes = 10\n"
      "minutes = 15\n"
      "\n"
      "[campaign clean]\n"
      "kind = none\n"
      "[campaign faulty]\n"
      "kind = faulty\n";
  const batch::SweepSpec sweep = batch::parse_sweep(text, "test.ini");
  ASSERT_EQ(sweep.topologies.size(), 2u);
  EXPECT_EQ(sweep.topologies[0].name, "tiny");
  EXPECT_EQ(sweep.topologies[1].name, "ring");
  EXPECT_EQ(sweep.topologies[1].spec->topology.cluster_count(), 5u);
  EXPECT_EQ(sweep.topologies[1].spec->application.total_time, minutes(15));
  ASSERT_EQ(sweep.campaigns.size(), 2u);
  EXPECT_EQ(sweep.campaigns[1].kind, batch::CampaignPoint::Kind::kReference);
  EXPECT_EQ(sweep.seeds, (std::vector<std::uint64_t>{2, 3, 4}));
  EXPECT_EQ(sweep.protocol, driver::ProtocolKind::kIndependent);
  EXPECT_EQ(sweep.runs(), 12u);
}

TEST(SweepConfig, DefaultsSeedsAndCampaigns) {
  const batch::SweepSpec sweep = batch::parse_sweep(
      "[topology t]\npreset = small\nclusters = 2\nnodes = 3\n");
  EXPECT_EQ(sweep.seeds, (std::vector<std::uint64_t>{1}));
  ASSERT_EQ(sweep.campaigns.size(), 1u);
  EXPECT_EQ(sweep.campaigns[0].kind, batch::CampaignPoint::Kind::kNone);
}

TEST(SweepConfig, RejectsMalformedSweeps) {
  using config::ParseError;
  // No topology axis at all.
  EXPECT_THROW(batch::parse_sweep("[sweep]\nseeds = 1\n"), ParseError);
  // Unknown section / key / preset / campaign kind.
  EXPECT_THROW(batch::parse_sweep("[bogus]\n"), ParseError);
  EXPECT_THROW(batch::parse_sweep("[sweep]\nfrobnicate = 1\n"), ParseError);
  EXPECT_THROW(batch::parse_sweep("[topology t]\npreset = small\nnodse = 3\n"),
               ParseError);
  EXPECT_THROW(
      batch::parse_sweep("[topology t]\npreset = toroidal\nclusters = 2\n"),
      ParseError);
  EXPECT_THROW(batch::parse_sweep("[topology t]\npreset = small\n"
                                  "[campaign c]\nkind = mystery\n"),
               ParseError);
  // The file takes the CLI's campaign tokens, not a spelling of its own.
  EXPECT_THROW(batch::parse_sweep("[topology t]\npreset = small\n"
                                  "[campaign c]\nkind = reference\n"),
               ParseError);
  // Duplicate [sweep].
  EXPECT_THROW(batch::parse_sweep("[sweep]\n[sweep]\n[topology t]\n"),
               ParseError);
  // Overlap campaign demands >= 4 clusters; a 2-cluster topology fails
  // validation, surfaced as a ParseError with the file origin.
  EXPECT_THROW(batch::parse_sweep("[topology t]\npreset = small\n"
                                  "clusters = 2\nnodes = 3\n"
                                  "[campaign o]\nkind = overlap\n"),
               ParseError);
}

TEST(SweepConfig, MtbfCampaignKindIsTheCliToken) {
  const batch::SweepSpec sweep = batch::parse_sweep(
      "[topology t]\npreset = small\nclusters = 2\nnodes = 3\n"
      "[campaign storm]\nkind = mtbf:2min\n");
  ASSERT_EQ(sweep.campaigns.size(), 1u);
  const batch::CampaignPoint& file = sweep.campaigns[0];
  EXPECT_EQ(file.name, "storm");
  ASSERT_EQ(file.kind, batch::CampaignPoint::Kind::kExplicit);
  // One federation-wide stream, exactly what the CLI builds for the token.
  fault::StreamSpec stream;
  stream.mtbf = minutes(2);
  EXPECT_EQ(file.plan->streams, std::vector<fault::StreamSpec>{stream});
  EXPECT_EQ(batch::parse_campaign_token("mtbf:2min").plan->streams,
            file.plan->streams);
  EXPECT_THROW(batch::parse_campaign_token("mtbf:0s"), config::ParseError);
}

TEST(SweepConfig, SeedListSyntax) {
  EXPECT_EQ(batch::parse_seed_list("3..6"),
            (std::vector<std::uint64_t>{3, 4, 5, 6}));
  EXPECT_EQ(batch::parse_seed_list("7"), (std::vector<std::uint64_t>{7}));
  EXPECT_EQ(batch::parse_seed_list("1,9,4"),
            (std::vector<std::uint64_t>{1, 9, 4}));
  EXPECT_THROW(batch::parse_seed_list("5..2"), config::ParseError);
  EXPECT_THROW(batch::parse_seed_list("a..b"), config::ParseError);
  EXPECT_THROW(batch::parse_seed_list(""), config::ParseError);
  EXPECT_THROW(batch::parse_seed_list("1,x"), config::ParseError);
}

TEST(SweepExpand, GridOrderIsTopologyMajor) {
  batch::SweepSpec sweep;
  sweep.topologies = {batch::small_topology(2, 4), batch::small_topology(3, 4)};
  sweep.campaigns = {batch::no_campaign(), batch::reference_campaign()};
  sweep.seeds = {1, 2};
  const std::vector<batch::RunCase> cases = batch::expand(sweep);
  ASSERT_EQ(cases.size(), 8u);
  EXPECT_EQ(cases[0].name(), "small_2x4/none s=1");
  EXPECT_EQ(cases[1].name(), "small_2x4/none s=2");
  EXPECT_EQ(cases[2].name(), "small_2x4/faulty s=1");
  EXPECT_EQ(cases[4].name(), "small_3x4/none s=1");
  EXPECT_EQ(cases[7].name(), "small_3x4/faulty s=2");
  // Seeds of one cell share the materialised plan; cells do not.
  EXPECT_EQ(cases[2].plan, cases[3].plan);
  EXPECT_NE(cases[2].plan, cases[6].plan);
  EXPECT_EQ(cases[0].plan, nullptr);
}

TEST(SweepExpand, ValidationRejectsBadGrids) {
  batch::SweepSpec empty;
  EXPECT_THROW(batch::expand(empty), CheckFailure);

  batch::SweepSpec sweep;
  sweep.topologies = {batch::small_topology(2, 3)};
  sweep.campaigns = {batch::overlap_campaign()};  // needs >= 4 clusters
  sweep.seeds = {1};
  EXPECT_THROW(batch::expand(sweep), CheckFailure);

  // An explicit plan is validated against *every* topology point.
  batch::SweepSpec mixed;
  mixed.topologies = {batch::small_topology(2, 4), batch::small_topology(2, 2)};
  fault::Campaign plan;
  plan.kills.push_back(fault::KillSpec{minutes(5), NodeId{6}});  // 2x4 only
  mixed.campaigns = {batch::explicit_campaign("k6", std::move(plan))};
  mixed.seeds = {1};
  EXPECT_THROW(batch::expand(mixed), CheckFailure);
}

// The report's scale and recovery columns read the run's own counters: a
// ring of 4 clusters carries traffic on 12 pairs (self plus two
// neighbours), GC runs, and every cluster rollback alerts the 3 others.
TEST(BatchReport, CaseColumnsReadTheRunCounters) {
  batch::SweepSpec sweep;
  sweep.topologies = {batch::scale_topology(4, 8, minutes(20))};
  fault::Campaign plan;
  fault::StreamSpec stream;  // federation-wide
  stream.mtbf = minutes(2);
  plan.streams.push_back(stream);
  sweep.campaigns = {batch::no_campaign(),
                     batch::explicit_campaign("mtbf:2min", std::move(plan))};
  sweep.seeds = {1};
  batch::RunnerOptions ropts;
  ropts.threads = 1;
  const batch::BatchReport report = batch::Runner(ropts).run(sweep);
  ASSERT_EQ(report.cases.size(), 2u);
  for (const batch::CaseResult& c : report.cases) {
    EXPECT_TRUE(c.ok) << c.campaign << ": " << c.error;
    EXPECT_EQ(c.pairs, 12u) << c.campaign;
    EXPECT_GT(c.max_clcs, 0u) << c.campaign;
    EXPECT_GT(c.gc_saved_bytes, 0u) << c.campaign;
    EXPECT_EQ(c.cost.alert_fanout, c.cost.rollbacks * 3) << c.campaign;
  }
  const batch::CaseResult& clean = report.cases[0];
  EXPECT_EQ(clean.faults, 0u);
  EXPECT_EQ(clean.recovery_latency_s, 0.0);
  const batch::CaseResult& faulty = report.cases[1];
  EXPECT_GT(faulty.faults, 0u);
  EXPECT_GT(faulty.cost.rollbacks, 0u);
  EXPECT_GT(faulty.cost.lost_work_s, 0.0);
  EXPECT_GT(faulty.recovery_latency_s, 0.0);

  const std::string table = report.render_table();
  EXPECT_NE(table.find("fanout"), std::string::npos) << table;
  EXPECT_NE(table.find("gc_saved_B"), std::string::npos) << table;
  EXPECT_NE(table.find("mtbf:2min"), std::string::npos) << table;
  EXPECT_NE(report.to_json().find("\"pairs\": 12,"), std::string::npos);
}

// Every case reports the FNV-1a digest of its counter dump, kept or not;
// the JSON carries it as 16 hex digits, so --json runs can be diffed across
// processes and shard counts without the dumps themselves.
TEST(BatchReport, JsonDigestIsTheFnv1aOfTheDump) {
  batch::SweepSpec sweep;
  sweep.topologies = {batch::small_topology(2, 3)};
  sweep.campaigns = {batch::no_campaign()};
  sweep.seeds = {1, 2};
  batch::RunnerOptions ropts;
  ropts.threads = 1;
  ropts.keep_dumps = true;
  const batch::BatchReport kept = batch::Runner(ropts).run(sweep);
  ropts.keep_dumps = false;
  const batch::BatchReport dropped = batch::Runner(ropts).run(sweep);
  ASSERT_EQ(kept.cases.size(), 2u);
  const std::string json = kept.to_json();
  for (std::size_t i = 0; i < kept.cases.size(); ++i) {
    const batch::CaseResult& c = kept.cases[i];
    ASSERT_FALSE(c.dump.empty());
    EXPECT_EQ(c.digest, stats::fnv1a(c.dump));
    EXPECT_EQ(dropped.cases[i].digest, c.digest);
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(c.digest));
    EXPECT_NE(json.find("\"digest\": \"" + std::string(hex) + "\""),
              std::string::npos)
        << json;
  }
  EXPECT_NE(kept.cases[0].digest, kept.cases[1].digest);
}

}  // namespace
}  // namespace hc3i::testing
