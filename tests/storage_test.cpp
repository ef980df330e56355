// Checkpoint-storage subsystem tests.
//
// The tentpole property: incremental dirty-range capture is lossless.  A
// materialized StateRegion driven through randomized touch sequences — with
// overlapping ranges, clamped tails, zero-touch rounds and payloads on both
// sides of the inline/spill boundary — must rebuild byte-exactly from the
// base + Σ deltas chain at *every* prefix, matching the full image a plain
// snapshot would have captured at that point (40 seeds).
//
// Alongside it: the backend cost models against their closed forms (local
// disk gated by the largest per-node chain, striped remote by the cluster
// total), ClcStore::chain_read_bytes walking a chain back to its nearest
// base (including the GC-rebased-oldest rule), the end-to-end exact-sum
// check — ckpt.* / recovery.read_us counters equal incident rows plus the
// post-campaign residual under each backend — and the regression test for
// the snapshot-size check that used to be missing (a fixture hardcoding
// state_bytes silently mis-sized all storage accounting).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "config/presets.hpp"
#include "config/spec.hpp"
#include "driver/run.hpp"
#include "fault/campaign.hpp"
#include "proto/clc_store.hpp"
#include "storage/backend.hpp"
#include "storage/state_region.hpp"
#include "test_util.hpp"
#include "util/check.hpp"

namespace hc3i::testing {
namespace {

using storage::CaptureMode;
using storage::CaptureRecord;
using storage::StateRegion;

// ---------------------------------------------------------------------------
// StateRegion: delta capture vs. the full-image reference model
// ---------------------------------------------------------------------------

/// Deterministic xorshift64 stream — the property suite's only entropy.
struct Rng {
  std::uint64_t s;
  explicit Rng(std::uint64_t seed) : s(seed * 0x9E3779B97F4A7C15ULL + 1) {}
  std::uint64_t next() {
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    return s;
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

TEST(StateRegionProperty, ChainRebuildsFullImageAtEveryPrefix) {
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    Rng rng(seed);
    // Sizes straddle CaptureBytes::kInlineBytes so some deltas stay inline
    // and some spill.
    const std::uint64_t size = 16 + rng.below(240);
    StateRegion region(size, StateRegion::Content::kMaterialized);
    std::vector<CaptureRecord> chain;
    std::vector<std::vector<std::uint8_t>> images;  // full-image reference

    const std::uint64_t captures = 4 + rng.below(5);
    for (std::uint64_t cap = 0; cap < captures; ++cap) {
      const std::uint64_t touches = rng.below(6);  // sometimes zero
      for (std::uint64_t t = 0; t < touches; ++t) {
        // Offsets may land past the end (clamped), lengths overlap freely.
        region.touch(rng.below(size + 8), rng.below(size / 2 + 2),
                     rng.next());
      }
      const CaptureRecord rec = region.capture(CaptureMode::kIncremental);
      if (cap == 0) {
        // No base yet: the first capture degrades to a full image.
        EXPECT_FALSE(rec.incremental) << "seed " << seed;
        EXPECT_EQ(rec.length, size) << "seed " << seed;
      } else {
        EXPECT_TRUE(rec.incremental) << "seed " << seed;
        if (touches == 0) {
          EXPECT_EQ(rec.length, 0u) << "zero touches must capture free";
        }
      }
      chain.push_back(rec);
      images.push_back(region.contents());
    }

    for (std::size_t k = 1; k <= chain.size(); ++k) {
      const std::vector<CaptureRecord> prefix(chain.begin(),
                                              chain.begin() + k);
      EXPECT_EQ(StateRegion::rebuild(size, prefix), images[k - 1])
          << "seed " << seed << " diverged at chain prefix " << k;
    }
  }
}

TEST(StateRegionProperty, CaptureNeverPerturbsContents) {
  // Two regions fed the identical touch sequence, one capturing after every
  // round, must hold identical bytes throughout — capture is observation.
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    Rng a_rng(seed), b_rng(seed);
    StateRegion a(100, StateRegion::Content::kMaterialized);
    StateRegion b(100, StateRegion::Content::kMaterialized);
    for (int round = 0; round < 8; ++round) {
      for (int t = 0; t < 3; ++t) {
        a.touch(a_rng.below(100), a_rng.below(50), a_rng.next());
        b.touch(b_rng.below(100), b_rng.below(50), b_rng.next());
      }
      a.capture(CaptureMode::kIncremental);
      EXPECT_EQ(a.contents(), b.contents()) << "seed " << seed;
    }
  }
}

TEST(StateRegion, WatermarkTracksTouchedSpan) {
  StateRegion region(1000);
  EXPECT_FALSE(region.dirty());
  region.touch(100, 50);
  EXPECT_EQ(region.dirty_bytes(), 50u);
  region.touch(120, 100);  // overlapping extension
  EXPECT_EQ(region.dirty_bytes(), 120u);  // [100, 220)
  region.touch(990, 100);  // clamped at the region end
  EXPECT_EQ(region.dirty_bytes(), 900u);  // [100, 1000)
  region.touch(2000, 10);  // entirely out of range: ignored
  EXPECT_EQ(region.dirty_bytes(), 900u);
  region.touch(5, 0);  // zero length: ignored
  EXPECT_EQ(region.dirty_bytes(), 900u);
}

TEST(StateRegion, CaptureModesAndChainBases) {
  StateRegion region(256);
  // First capture is a full base even when incremental was asked for.
  CaptureRecord base = region.capture(CaptureMode::kIncremental);
  EXPECT_FALSE(base.incremental);
  EXPECT_EQ(base.length, 256u);

  region.touch(10, 20);
  const CaptureRecord delta = region.capture(CaptureMode::kIncremental);
  EXPECT_TRUE(delta.incremental);
  EXPECT_EQ(delta.offset, 10u);
  EXPECT_EQ(delta.length, 20u);

  // A full capture restarts the chain regardless of dirt.
  region.touch(50, 5);
  const CaptureRecord full = region.capture(CaptureMode::kFull);
  EXPECT_FALSE(full.incremental);
  EXPECT_EQ(full.length, 256u);

  // reset_base(): the next incremental capture is full again (restore made
  // the restored image the baseline, not this region's history).
  region.touch(1, 1);
  region.reset_base();
  const CaptureRecord rebased = region.capture(CaptureMode::kIncremental);
  EXPECT_FALSE(rebased.incremental);
  EXPECT_EQ(rebased.length, 256u);
}

TEST(StateRegion, InlineSpillBoundary) {
  StateRegion region(128, StateRegion::Content::kMaterialized);
  region.capture(CaptureMode::kFull);  // establish the base

  region.touch(0, storage::CaptureBytes::kInlineBytes);
  CaptureRecord at_boundary = region.capture(CaptureMode::kIncremental);
  EXPECT_EQ(at_boundary.bytes.size(), storage::CaptureBytes::kInlineBytes);
  EXPECT_FALSE(at_boundary.bytes.spilled());

  region.touch(0, storage::CaptureBytes::kInlineBytes + 1);
  CaptureRecord past_boundary = region.capture(CaptureMode::kIncremental);
  EXPECT_EQ(past_boundary.bytes.size(),
            storage::CaptureBytes::kInlineBytes + 1);
  EXPECT_TRUE(past_boundary.bytes.spilled());
}

TEST(StateRegion, RebuildRejectsMalformedChains) {
  EXPECT_THROW(StateRegion::rebuild(64, {}), CheckFailure);
  // A chain must open with a full capture of the right size.
  StateRegion region(64, StateRegion::Content::kMaterialized);
  region.capture(CaptureMode::kFull);
  region.touch(0, 8);
  const CaptureRecord delta = region.capture(CaptureMode::kIncremental);
  EXPECT_THROW(StateRegion::rebuild(64, {delta}), CheckFailure);
  EXPECT_THROW(StateRegion(0), CheckFailure);
}

// ---------------------------------------------------------------------------
// Backend cost models against their closed forms
// ---------------------------------------------------------------------------

config::StorageSpec backend_spec(config::StorageSpec::Kind kind) {
  config::StorageSpec spec;
  spec.kind = kind;
  spec.latency = milliseconds(5);
  spec.write_bytes_per_sec = 100e6;
  spec.read_bytes_per_sec = 200e6;
  spec.stripe_width = 4;
  return spec;
}

TEST(Backend, LocalDiskGatedByLargestPerNodeChain) {
  const auto be = storage::make_backend(
      backend_spec(config::StorageSpec::Kind::kLocalDisk), 8);
  ASSERT_NE(be, nullptr);
  EXPECT_STREQ(be->name(), "local-disk");
  // latency + bytes / write_bw
  EXPECT_EQ(be->node_write_time(100'000'000), milliseconds(5) + seconds(1));
  // Reads run on per-node disks in parallel: only max_node_bytes gates.
  EXPECT_EQ(be->cluster_read_time(1'000'000'000, 200'000'000),
            milliseconds(5) + seconds(1));
  // Zero bytes cost nothing — not even the latency (nothing to persist).
  EXPECT_EQ(be->node_write_time(0), SimTime::zero());
  EXPECT_EQ(be->cluster_read_time(0, 0), SimTime::zero());
}

TEST(Backend, StripedRemoteMultipliesBandwidthAndGatesOnTotal) {
  const auto be = storage::make_backend(
      backend_spec(config::StorageSpec::Kind::kStripedRemote), 8);
  ASSERT_NE(be, nullptr);
  EXPECT_STREQ(be->name(), "striped-remote");
  // Writes chunk across 4 donors: latency + bytes / (write_bw * 4).
  EXPECT_EQ(be->node_write_time(400'000'000), milliseconds(5) + seconds(1));
  // The shared store serves all chains: total_bytes gates, max is ignored.
  EXPECT_EQ(be->cluster_read_time(800'000'000, 100),
            milliseconds(5) + seconds(1));
}

TEST(Backend, StripeWidthClampsToClusterSize) {
  const auto narrow = storage::make_backend(
      backend_spec(config::StorageSpec::Kind::kStripedRemote), 2);
  // Only 2 nodes to stripe across: width 2, not the configured 4.
  EXPECT_EQ(narrow->node_write_time(200'000'000),
            milliseconds(5) + seconds(1));
}

TEST(Backend, NoneMeansNoBackend) {
  EXPECT_EQ(storage::make_backend(
                backend_spec(config::StorageSpec::Kind::kNone), 8),
            nullptr);
}

// ---------------------------------------------------------------------------
// ClcStore: chain read accounting
// ---------------------------------------------------------------------------

proto::ClcRecord chain_rec(SeqNum sn, std::uint32_t nodes,
                           std::uint64_t state, std::uint64_t delta,
                           bool incremental) {
  proto::ClcRecord rec;
  rec.sn = sn;
  rec.ddv = proto::Ddv(1, ClusterId{0}, sn);
  rec.parts.resize(nodes);
  for (proto::NodePart& p : rec.parts) {
    p.app.state_bytes = state;
    p.app.delta_bytes = incremental ? delta : state;
    p.app.incremental = incremental;
  }
  return rec;
}

TEST(ClcStore, ChainReadWalksBackToNearestBase) {
  proto::ClcStore store(ClusterId{0}, 2);
  store.commit(chain_rec(1, 2, 1000, 1000, false));
  store.commit(chain_rec(2, 2, 1000, 100, true));
  store.commit(chain_rec(3, 2, 1000, 50, true));
  store.commit(chain_rec(4, 2, 1000, 1000, false));  // a fresh base
  EXPECT_EQ(store.chain_read_bytes(1, 0), 1000u);
  EXPECT_EQ(store.chain_read_bytes(2, 0), 1100u);
  EXPECT_EQ(store.chain_read_bytes(3, 1), 1150u);
  // Restoring from the fresh base never re-reads the older chain.
  EXPECT_EQ(store.chain_read_bytes(4, 0), 1000u);
}

TEST(ClcStore, GcRebasedOldestDeltaChargedAsFullImage) {
  proto::ClcStore store(ClusterId{0}, 2);
  store.commit(chain_rec(1, 2, 1000, 1000, false));
  store.commit(chain_rec(2, 2, 1000, 100, true));
  store.commit(chain_rec(3, 2, 1000, 50, true));
  EXPECT_EQ(store.prune_before(2), 1u);  // GC drops the true base
  // The oldest retained record acts as a rebased full image.
  EXPECT_EQ(store.chain_read_bytes(2, 0), 1000u);
  EXPECT_EQ(store.chain_read_bytes(3, 0), 1050u);
}

TEST(ClcStore, StorageBytesCountsDeltasNotImages) {
  proto::ClcStore store(ClusterId{0}, 2);  // default replication 1
  store.commit(chain_rec(1, 2, 1000, 1000, false));
  store.commit(chain_rec(2, 2, 1000, 100, true));
  // (2 parts x 1000 + 2 parts x 100) x (1 + replication)
  EXPECT_EQ(store.storage_bytes(), (2000u + 200u) * 2u);
}

// ---------------------------------------------------------------------------
// End to end: a kill mid-interval under each backend, exact-sum telemetry
// ---------------------------------------------------------------------------

driver::RunOptions storage_run(config::StorageSpec::Kind kind,
                               bool incremental) {
  driver::RunOptions opts;
  opts.spec = config::scale_federation_spec(2, 6, minutes(30));
  config::StorageSpec st;
  st.kind = kind;
  st.incremental = incremental;
  for (config::ClusterSpec& c : opts.spec.topology.clusters) c.storage = st;
  // Mid-interval kill: 30 s past a 5-minute CLC-timer boundary, so the
  // rollback discards real progress and recovery reads a non-trivial chain.
  opts.campaign.kills.push_back(
      fault::KillSpec{minutes(12) + seconds(30), NodeId{1}});
  return opts;
}

TEST(StorageE2E, IncidentRowsPlusResidualSumExactlyUnderEachBackend) {
  for (const auto kind : {config::StorageSpec::Kind::kLocalDisk,
                          config::StorageSpec::Kind::kStripedRemote}) {
    const auto result = driver::run_simulation(storage_run(kind, true));
    EXPECT_TRUE(result.violations.empty());
    ASSERT_EQ(result.incidents.size(), 1u);
    ASSERT_TRUE(result.fault_summary.has_residual);

    EXPECT_GT(result.counter("ckpt.bytes_written"), 0u);
    EXPECT_GT(result.counter("ckpt.stall_us"), 0u);
    EXPECT_GT(result.counter("recovery.read_us"), 0u);
    // The chain read happened during the incident's own interval.
    EXPECT_GT(result.incidents[0].cost.recovery_read_us, 0u);

    expect_incident_rows_sum_to_run_cost(result);
  }
}

TEST(StorageE2E, IncrementalCaptureSavesBytes) {
  const auto inc = driver::run_simulation(
      storage_run(config::StorageSpec::Kind::kLocalDisk, true));
  const auto full = driver::run_simulation(
      storage_run(config::StorageSpec::Kind::kLocalDisk, false));
  EXPECT_GT(inc.counter("ckpt.bytes_delta_saved"), 0u);
  EXPECT_EQ(full.counter("ckpt.bytes_delta_saved"), 0u);
  EXPECT_LT(inc.counter("ckpt.bytes_written"),
            full.counter("ckpt.bytes_written"));
}

TEST(StorageE2E, StorageChargedRunsAreDeterministic) {
  for (const auto kind : {config::StorageSpec::Kind::kLocalDisk,
                          config::StorageSpec::Kind::kStripedRemote}) {
    const auto opts = storage_run(kind, true);
    const auto a = driver::run_simulation(opts);
    const auto b = driver::run_simulation(opts);
    EXPECT_EQ(a.registry.dump(), b.registry.dump());
  }
}

TEST(StorageE2E, StorageOffLeavesNoCounterTrace) {
  // The golden-file contract: with no backend the ckpt.* counters are never
  // interned, so pre-storage dumps stay byte-identical.
  driver::RunOptions opts = storage_run(config::StorageSpec::Kind::kNone,
                                        true);
  const auto result = driver::run_simulation(opts);
  EXPECT_EQ(result.counter("ckpt.bytes_written"), 0u);
  EXPECT_EQ(result.counter("recovery.read_us"), 0u);
  EXPECT_EQ(result.registry.dump().find("ckpt."), std::string::npos);
  EXPECT_EQ(result.registry.dump().find("recovery.read"), std::string::npos);
}

// Regression: AppSnapshot.state_bytes was never validated against the
// declared application state size, so a fixture (or app) reporting the
// wrong size silently mis-sized every storage and lost-work figure.  The
// capture path now rejects the mismatch.
TEST(StorageE2E, MismatchedSnapshotStateSizeIsRejected) {
  config::RunSpec spec = tiny_spec();
  spec.timers.clusters[0].clc_period = minutes(5);
  MiniWorld w(spec, /*seed=*/1);
  w.apps[0]->state_bytes = 4096;  // disagrees with the declared 64 KiB
  EXPECT_THROW(w.settle(minutes(6)), CheckFailure);
}

}  // namespace
}  // namespace hc3i::testing
