// Scale-out regime tests: the sparse pair census (vs a dense reference,
// including node up/down churn), pooled control payloads (recycling without
// aliasing), the compressed GC metadata codec (round trip), the dedup-set
// copy-on-write capture and its refcounted box, and a 10-cluster end-to-end
// smoke run.

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <string>
#include <vector>

#include "config/presets.hpp"
#include "driver/run.hpp"
#include "hc3i/control.hpp"
#include "net/network.hpp"
#include "net/pair_census.hpp"
#include "proto/dedup_set.hpp"
#include "proto/gc_wire.hpp"
#include "proto/payload_pool.hpp"
#include "sim/simulation.hpp"
#include "stats/registry.hpp"
#include "util/rc_box.hpp"
#include "util/rng.hpp"

namespace hc3i {
namespace {

// ---------------------------------------------------------------------------
// Sparse pair census
// ---------------------------------------------------------------------------

TEST(PairCensus, CountsMatchDenseReference) {
  net::PairCensus census;
  stats::Registry reg;
  // Dense reference: a plain map keyed the obvious way.
  std::map<std::pair<std::uint32_t, std::uint32_t>, std::uint64_t> dense;
  RngStream rng(42, 1);
  constexpr std::uint32_t kClusters = 37;  // deliberately not a power of two
  for (int i = 0; i < 20000; ++i) {
    const ClusterId src{static_cast<std::uint32_t>(rng.next_below(kClusters))};
    const ClusterId dst{static_cast<std::uint32_t>(rng.next_below(kClusters))};
    stats::Counter*& cell = census.slot(src, dst);
    if (!cell) {
      cell = &reg.counter("pair." + std::to_string(src.v) + "." +
                          std::to_string(dst.v));
    }
    cell->inc();
    ++dense[{src.v, dst.v}];
  }
  ASSERT_EQ(census.active_pairs(), dense.size());
  for (const auto& [pair, count] : dense) {
    EXPECT_EQ(reg.get("pair." + std::to_string(pair.first) + "." +
                      std::to_string(pair.second)),
              count);
  }
}

TEST(PairCensus, FootprintScalesWithActivePairsNotClusters) {
  // A 1000-cluster federation where only a ring of pairs carries traffic:
  // the table must size by the ~2000 touched pairs, not by 1000² cells.
  net::PairCensus census;
  stats::Registry reg;
  constexpr std::uint32_t kClusters = 1000;
  for (std::uint32_t c = 0; c < kClusters; ++c) {
    for (const std::uint32_t d : {c, (c + 1) % kClusters}) {
      stats::Counter*& cell = census.slot(ClusterId{c}, ClusterId{d});
      if (!cell) cell = &reg.counter("p");
      cell->inc();
    }
  }
  EXPECT_EQ(census.active_pairs(), 2u * kClusters);
  // Open addressing at a 0.7 load bound: capacity stays within a small
  // constant of the active-pair count — nowhere near clusters².
  EXPECT_LE(census.bucket_count(), 8u * kClusters);
}

TEST(SparseCensus, NodeChurnMatchesDenseReference) {
  // Drive the real Network across up/down churn (parked deliveries) and
  // check the per-pair registry counters against an independently kept
  // dense tally — churn must not double- or under-count the census.
  sim::Simulation sim(7);
  stats::Registry reg;
  const net::Topology topo(config::small_test_spec(4, 3).topology);
  net::Network net(sim, topo, reg);
  std::uint64_t delivered = 0;
  for (std::uint32_t i = 0; i < topo.node_count(); ++i) {
    net.attach(NodeId{i}, [&delivered](const net::Envelope&) { ++delivered; });
  }
  std::vector<std::vector<std::uint64_t>> dense(4, std::vector<std::uint64_t>(4));
  RngStream rng(7, 3);
  std::uint64_t sent = 0;
  for (int round = 0; round < 200; ++round) {
    // Toggle one node per round (down on even, up on odd rounds).
    const NodeId victim{static_cast<std::uint32_t>(rng.next_below(12))};
    if (round % 2 == 0) {
      if (net.node_up(victim)) net.set_node_down(victim);
    } else {
      net.set_node_up(victim);
    }
    for (int m = 0; m < 5; ++m) {
      net::Envelope env;
      env.src = NodeId{static_cast<std::uint32_t>(rng.next_below(12))};
      do {
        env.dst = NodeId{static_cast<std::uint32_t>(rng.next_below(12))};
      } while (env.dst == env.src);
      env.cls = net::MsgClass::kApp;
      env.payload_bytes = 128;
      env.app_seq = ++sent;
      ++dense[topo.cluster_of(env.src).v][topo.cluster_of(env.dst).v];
      net.send(std::move(env));
    }
    sim.run_all();
  }
  // Revive everyone so parked messages drain.
  for (std::uint32_t i = 0; i < 12; ++i) net.set_node_up(NodeId{i});
  sim.run_all();
  EXPECT_EQ(delivered, sent);
  std::size_t active = 0;
  for (std::uint32_t s = 0; s < 4; ++s) {
    for (std::uint32_t d = 0; d < 4; ++d) {
      const std::uint64_t expect = dense[s][d];
      EXPECT_EQ(reg.get("net.app.pair." + std::to_string(s) + "." +
                        std::to_string(d)),
                expect)
          << "pair " << s << "->" << d;
      if (expect > 0) ++active;
    }
  }
  EXPECT_EQ(net.census_active_pairs(), active);
}

// ---------------------------------------------------------------------------
// Pooled control payloads
// ---------------------------------------------------------------------------

TEST(PayloadPool, NoAliasingAcrossLiveReferences) {
  auto a = proto::make_pooled<core::InterAck>();
  a->msg = MsgId{1};
  a->ack_sn = 7;
  const void* a_storage = a.get();
  // A second allocation while `a` is alive must not reuse its storage.
  auto b = proto::make_pooled<core::InterAck>();
  EXPECT_NE(static_cast<const void*>(b.get()), a_storage);
  b->msg = MsgId{2};
  b->ack_sn = 9;
  EXPECT_EQ(a->msg, MsgId{1});
  EXPECT_EQ(a->ack_sn, 7u);
}

TEST(PayloadPool, RecyclesOnlyAfterLastReferenceDrops) {
  // Recycling is an arena behaviour (PR 7): without an installed arena
  // make_pooled is plain heap traffic, so pin one for the pool semantics.
  proto::PayloadArena arena;
  proto::ScopedPayloadArena scope(arena);
  auto a = proto::make_pooled<core::InterAck>();
  a->ack_sn = 41;
  const void* a_storage = a.get();
  std::shared_ptr<const core::InterAck> keep = a;  // aliasing live reference
  a.reset();
  // Still referenced through `keep`: a new allocation must not reuse it.
  auto b = proto::make_pooled<core::InterAck>();
  EXPECT_NE(static_cast<const void*>(b.get()), a_storage);
  EXPECT_EQ(keep->ack_sn, 41u);
  keep.reset();
  // Now the block is free: the (LIFO, single-threaded) pool hands it back,
  // freshly constructed — no field bleeds through from the previous life.
  auto c = proto::make_pooled<core::InterAck>();
  EXPECT_EQ(static_cast<const void*>(c.get()), a_storage);
  EXPECT_EQ(c->ack_sn, 0u);
  EXPECT_EQ(c->msg, MsgId{});
  EXPECT_EQ(c->kind, core::InterAck::kKind);
}

TEST(PayloadPool, PoolsArePerType) {
  proto::PayloadArena arena;
  proto::ScopedPayloadArena scope(arena);
  auto a = proto::make_pooled<core::GcRequest>();
  const void* a_storage = a.get();
  a.reset();
  // A different payload type must not be served from GcRequest's free list.
  auto b = proto::make_pooled<core::ClcRequest>();
  EXPECT_NE(static_cast<const void*>(b.get()), a_storage);
}

// ---------------------------------------------------------------------------
// Compressed GC metadata codec
// ---------------------------------------------------------------------------

proto::ClcMeta meta_of(SeqNum sn, const std::vector<SeqNum>& entries) {
  proto::ClcMeta m;
  m.sn = sn;
  m.ddv = proto::Ddv(entries.size(), ClusterId{0}, 0);
  for (std::size_t i = 0; i < entries.size(); ++i) {
    m.ddv.set(ClusterId{static_cast<std::uint32_t>(i)}, entries[i]);
  }
  return m;
}

TEST(GcWire, RoundTripsEmptyAndSingle) {
  EXPECT_TRUE(proto::decode_clc_metas(proto::encode_clc_metas({})).empty());

  const std::vector<proto::ClcMeta> one = {meta_of(1, {1, 0, 0})};
  const auto decoded = proto::decode_clc_metas(proto::encode_clc_metas(one));
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].sn, 1u);
  EXPECT_EQ(decoded[0].ddv, one[0].ddv);
}

TEST(GcWire, RoundTripsTypicalAndAdversarialLists) {
  // Typical: ascending SNs, mostly-unchanged DDVs.  Adversarial: an entry
  // that *decreases* between records (cannot happen in a live store, but
  // the codec must not corrupt it silently), wide values, repeated SNs.
  const std::vector<std::vector<proto::ClcMeta>> cases = {
      {meta_of(1, {1, 0, 0, 0}), meta_of(2, {2, 0, 0, 0}),
       meta_of(3, {3, 5, 0, 0}), meta_of(9, {9, 5, 0, 7})},
      {meta_of(5, {5, 9, 2}), meta_of(6, {6, 3, 2})},  // entry drops 9 -> 3
      {meta_of(1, {1}), meta_of(1, {4})},              // repeated SN
      {meta_of(1000000, {1000000, 999999, 0, 123456, 1})},
  };
  for (const auto& metas : cases) {
    const auto decoded =
        proto::decode_clc_metas(proto::encode_clc_metas(metas));
    ASSERT_EQ(decoded.size(), metas.size());
    for (std::size_t i = 0; i < metas.size(); ++i) {
      EXPECT_EQ(decoded[i].sn, metas[i].sn);
      EXPECT_EQ(decoded[i].ddv, metas[i].ddv);
    }
  }
}

TEST(GcWire, CompressesTheTypicalStore) {
  // 60 retained CLCs in a 10-cluster federation, one DDV entry moving per
  // record — the §5.4 shape.  The encoding must beat the flat model by a
  // wide margin (this is the point of the change).
  std::vector<proto::ClcMeta> metas;
  std::vector<SeqNum> entries(10, 0);
  for (SeqNum sn = 1; sn <= 60; ++sn) {
    entries[0] = sn;
    entries[1 + (sn % 9)] += 1;
    metas.push_back(meta_of(sn, entries));
  }
  const auto enc = proto::encode_clc_metas(metas);
  const std::uint64_t flat = proto::uncompressed_clc_metas_bytes(
      metas.size(), 10, core::ControlSizes::kPerDdvEntry);
  EXPECT_LT(enc.wire_bytes() * 4, flat);  // at least 4x smaller
  const auto decoded = proto::decode_clc_metas(enc);
  ASSERT_EQ(decoded.size(), metas.size());
  EXPECT_EQ(decoded.back().ddv, metas.back().ddv);
}

TEST(GcWire, RejectsMalformedStreams) {
  const auto enc = proto::encode_clc_metas(
      {meta_of(1, {1, 0}), meta_of(2, {2, 1})});
  proto::EncodedClcMetas truncated = enc;
  truncated.bytes.resize(truncated.bytes.size() - 1);
  EXPECT_THROW(proto::decode_clc_metas(truncated), CheckFailure);
  proto::EncodedClcMetas trailing = enc;
  trailing.bytes.push_back(0);
  EXPECT_THROW(proto::decode_clc_metas(trailing), CheckFailure);
  // A crafted header claiming 2^60 records must be rejected before any
  // allocation sized by it (and likewise an implausible DDV width).
  proto::EncodedClcMetas huge;
  huge.bytes = {0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10, 0x02};
  EXPECT_THROW(proto::decode_clc_metas(huge), CheckFailure);
  proto::EncodedClcMetas wide;
  wide.bytes = {0x01, 0x80, 0x80, 0x80, 0x80, 0x10, 0x00, 0x00};
  EXPECT_THROW(proto::decode_clc_metas(wide), CheckFailure);
}

TEST(GcWire, RejectsSnDeltaOutOfRange) {
  // An adversarial SN-delta varint used to wrap the SeqNum accumulator
  // silently (prev_sn += truncates) while the DDV entries on the lines
  // below were range-checked; it must be rejected the same way.
  // count=1, width=1, sn_delta=2^32 (one past the SeqNum range), 0 changes.
  proto::EncodedClcMetas wrap;
  wrap.bytes = {0x01, 0x01, 0x80, 0x80, 0x80, 0x80, 0x10, 0x00};
  EXPECT_THROW(proto::decode_clc_metas(wrap), CheckFailure);
  // Accumulated wrap: first record lands exactly on the SeqNum maximum,
  // the second record's +1 delta pushes past it.
  proto::EncodedClcMetas accum;
  accum.bytes = {0x02, 0x01,
                 0xff, 0xff, 0xff, 0xff, 0x0f, 0x00,  // sn = 2^32-1, 0 changes
                 0x01, 0x00};                          // +1 overflows
  EXPECT_THROW(proto::decode_clc_metas(accum), CheckFailure);
  // The boundary itself is legal: a single record at the SeqNum maximum
  // decodes (delta == max - 0 is in range).
  proto::EncodedClcMetas edge;
  edge.bytes = {0x01, 0x01, 0xff, 0xff, 0xff, 0xff, 0x0f, 0x00};
  const auto decoded = proto::decode_clc_metas(edge);
  ASSERT_EQ(decoded.size(), 1u);
  EXPECT_EQ(decoded[0].sn, std::numeric_limits<SeqNum>::max());
}

// ---------------------------------------------------------------------------
// Dedup-set copy-on-write capture
// ---------------------------------------------------------------------------

TEST(DedupSet, CaptureIsSharedUntilMutation) {
  proto::DedupSet set;
  set.insert(30);
  set.insert(10);
  set.insert(20);
  const proto::DedupImage a = set.capture();
  const proto::DedupImage b = set.capture();
  EXPECT_TRUE(a.shares_storage_with(b));  // no mutation between captures
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a.entries(), (std::vector<std::uint64_t>{10, 20, 30}));  // sorted

  set.insert(15);  // invalidates the cache...
  const proto::DedupImage c = set.capture();
  EXPECT_FALSE(c.shares_storage_with(a));
  EXPECT_EQ(c.entries(), (std::vector<std::uint64_t>{10, 15, 20, 30}));
  // ...but the old images are frozen snapshots, untouched by the mutation.
  EXPECT_EQ(a.entries(), (std::vector<std::uint64_t>{10, 20, 30}));

  set.insert(15);  // duplicate: a no-op must not invalidate the cache
  EXPECT_TRUE(set.capture().shares_storage_with(c));
}

TEST(DedupSet, RestoreAdoptsImageStorage) {
  proto::DedupSet set;
  set.insert(1);
  set.insert(2);
  const proto::DedupImage checkpoint = set.capture();
  set.insert(3);  // post-checkpoint history

  proto::DedupSet restored;
  restored.restore(checkpoint);
  EXPECT_EQ(restored.size(), 2u);
  EXPECT_TRUE(restored.contains(1));
  EXPECT_FALSE(restored.contains(3));
  // Adoption: the next capture shares the checkpoint's buffer (O(1)).
  EXPECT_TRUE(restored.capture().shares_storage_with(checkpoint));
}

TEST(DedupSet, ImageCopiesShareAndMovesEmptyTheSource) {
  proto::DedupSet set;
  set.insert(7);
  proto::DedupImage a = set.capture();
  const proto::DedupImage copy = a;
  EXPECT_TRUE(copy.shares_storage_with(a));  // a copy shares the block
  const proto::DedupImage moved = std::move(a);
  EXPECT_TRUE(moved.shares_storage_with(copy));
  EXPECT_EQ(a.size(), 0u);  // a move empties its source
  EXPECT_FALSE(a.shares_storage_with(copy));
  set.insert(8);  // mutation after capture: the next capture is fresh...
  EXPECT_FALSE(set.capture().shares_storage_with(copy));
  // ...and the images stay frozen.
  EXPECT_EQ(copy.entries(), std::vector<std::uint64_t>{7});
  EXPECT_EQ(moved.entries(), std::vector<std::uint64_t>{7});
}

TEST(RcBox, LastReleaseFreesTheBlock) {
  struct Tracked {
    explicit Tracked(int* counter) : alive(counter) { ++*alive; }
    Tracked(const Tracked&) = delete;
    ~Tracked() { --*alive; }
    int* alive;
  };
  int alive = 0;
  {
    auto a = RcBox<Tracked>::make(&alive);
    EXPECT_EQ(alive, 1);
    EXPECT_TRUE(a.unique());
    RcBox<Tracked> b = a;
    EXPECT_TRUE(b.shares_with(a));
    EXPECT_EQ(a.use_count(), 2u);
    RcBox<Tracked> c = std::move(a);
    EXPECT_FALSE(a);  // a move empties its source
    EXPECT_EQ(c.use_count(), 2u);
    b = b;  // self-assignment keeps the reference
    EXPECT_EQ(c.use_count(), 2u);
    b.reset();
    EXPECT_TRUE(c.unique());
    EXPECT_EQ(alive, 1);  // one holder left
    b = c;
    c = RcBox<Tracked>{};
    EXPECT_EQ(alive, 1);
    EXPECT_EQ(b->alive, &alive);
  }
  EXPECT_EQ(alive, 0);  // the last release freed the value
}

// ---------------------------------------------------------------------------
// Scale-out end-to-end smoke
// ---------------------------------------------------------------------------

TEST(ScaleFederation, TenClusterSmokeRunsConsistently) {
  driver::RunOptions opts;
  opts.spec = config::scale_federation_spec(10, 4, minutes(10));
  opts.seed = 3;
  const driver::RunResult result = driver::run_simulation(opts);
  EXPECT_TRUE(result.violations.empty());
  EXPECT_GT(result.events_executed, 0u);
  // GC ran and the compressed responses saved real bytes.
  EXPECT_GT(result.counter("gc.rounds"), 0u);
  std::uint64_t saved = 0;
  std::size_t pairs = 0;
  for (const std::string& name : result.registry.counter_names()) {
    if (name.rfind("gc.resp_bytes_saved.", 0) == 0) {
      saved += result.counter(name);
    }
    if (name.rfind("net.app.pair.", 0) == 0) ++pairs;
  }
  EXPECT_GT(saved, 0u);
  // Ring traffic: intra pairs (10) plus two neighbours per cluster.
  EXPECT_EQ(pairs, 30u);
}

}  // namespace
}  // namespace hc3i
