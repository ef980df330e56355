// Allocation gates for the simulator substrate hot paths.
//
// The binary replaces the global operator new/delete with counting shims,
// so heap traffic is an exact, deterministic number.  Two kinds of gate:
//
//   zero-alloc kernels — the event queue under timer churn with 2PC-shaped
//       fan-outs, Network::send/deliver bare and with a 3-entry transitive
//       DDV piggyback (paper §7), and a disabled HC3I_OBS site.  Each takes
//       its allocation baseline after a warm-up and must then allocate
//       nothing at all.  An enabled Recorder may allocate once per trace
//       chunk, never per record, and the consistency ledger once per event
//       chunk, never per event.
//   scale bounds — the 5 -> 10-cluster heap growth of the scale-out
//       scenario stays below 3 (linear cost gives 2, a clusters² term 4;
//       docs/scaling.md), and the paper reference run stays under one
//       allocation per executed event.
//
// Nothing here is timed: the rates of the same kernels are measured by the
// benchmark (benchmark/hc3i_kernels.cpp).  gtest itself allocates, so every
// test reads the counter before its first EXPECT.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "config/presets.hpp"
#include "driver/run.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "proto/ledger.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "stats/registry.hpp"
#include "util/rng.hpp"

// --- allocation counting ----------------------------------------------------
// Counting shims for every replaceable allocation function.  The tests are
// single-threaded, so a plain counter is exact.

namespace {
std::uint64_t g_allocs = 0;
std::uint64_t g_alloc_bytes = 0;  ///< cumulative requested bytes

void* counted_alloc(std::size_t n) {
  ++g_allocs;
  g_alloc_bytes += n;
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* counted_alloc(std::size_t n, std::align_val_t align) {
  ++g_allocs;
  g_alloc_bytes += n;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), n != 0 ? n : 1) != 0) {
    throw std::bad_alloc{};
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  g_alloc_bytes += n;
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  g_alloc_bytes += n;
  return std::malloc(n != 0 ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t a) { return counted_alloc(n, a); }
void* operator new[](std::size_t n, std::align_val_t a) { return counted_alloc(n, a); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace hc3i::testing {
namespace {

/// Timer churn: 8192 live timers, each op cancels one and schedules a
/// replacement; every fourth op pops the earliest event.  This is the
/// schedule/cancel/reschedule pattern the CLC timers drive.  Every 1024th
/// op also starts a 2PC-shaped fan-out: a root event that schedules 99
/// same-instant requests, each of which schedules one reply, the shape of
/// a coordinator's request/ack round over identical links.  A first pass
/// runs the identical sequence on the same queue, so the second starts with
/// every slab at its peak and must not allocate at all.
TEST(ZeroAlloc, Events) {
  constexpr std::uint64_t kOps = 4'000'000;
  constexpr std::size_t kWindow = 8192;
  constexpr std::uint64_t kFanoutEvery = 1024;
  constexpr int kFanout = 99;
  sim::EventQueue q;
  std::uint64_t fired = 0;
  std::vector<sim::EventId> live(kWindow);

  const auto fanout = [&q, &fired](SimTime at) {
    q.schedule(at, [&q, &fired, at] {
      ++fired;
      const SimTime arrive = at + SimTime{5};
      for (int i = 0; i < kFanout; ++i) {
        q.schedule(arrive, [&q, &fired, arrive] {
          ++fired;
          q.schedule(arrive + SimTime{5}, [&fired] { ++fired; });
        });
      }
    });
  };
  const auto pass = [&] {
    RngStream rng(1, 7);
    for (std::size_t i = 0; i < kWindow; ++i) {
      live[i] = q.schedule(SimTime{static_cast<std::int64_t>(i + 1)},
                           [&fired] { ++fired; });
    }
    SimTime frontier = SimTime::zero();
    for (std::uint64_t op = 0; op < kOps; ++op) {
      const std::size_t idx = op % kWindow;
      q.cancel(live[idx]);  // often stale (already fired) — must be a no-op
      const auto jitter = static_cast<std::int64_t>(rng.next_below(1000) + 1);
      live[idx] = q.schedule(frontier + SimTime{jitter}, [&fired] { ++fired; });
      if (op % kFanoutEvery == 0) fanout(frontier + SimTime{jitter});
      if (op % 4 == 0 && !q.empty()) {
        auto [t, cb] = q.pop();
        frontier = t;
        cb();
      }
    }
    while (!q.empty()) q.pop().second();
  };
  pass();  // warm-up: grows the slabs to the sequence's peak

  const std::uint64_t fired0 = fired;
  const std::uint64_t allocs0 = g_allocs;
  pass();
  const std::uint64_t allocs = g_allocs - allocs0;
  EXPECT_EQ(allocs, 0u);
  EXPECT_GT(fired, fired0);
}

/// Network send/deliver over a 2 x 32-node federation: random application
/// traffic plus a control-plane share (every 8th message), draining the
/// simulation in batches of 256 so the flight table stays populated.  With
/// `with_ddv` every application message carries a 3-entry transitive DDV
/// piggyback.  The first 1024 sends warm the slabs and the census.
void expect_send_path_allocation_free(bool with_ddv) {
  constexpr std::uint64_t kMsgs = 400'000;
  constexpr std::uint64_t kBatch = 256;
  constexpr std::uint64_t kWarmup = 4 * kBatch;
  sim::Simulation sim(1);
  stats::Registry reg;
  const net::Topology topo(config::small_test_spec(2, 32).topology);
  net::Network net(sim, topo, reg);
  std::uint64_t delivered = 0;
  for (std::uint32_t i = 0; i < topo.node_count(); ++i) {
    net.attach(NodeId{i}, [&delivered](const net::Envelope&) { ++delivered; });
  }
  RngStream rng(1, 11);
  const std::uint32_t n = topo.node_count();

  std::uint64_t allocs0 = 0;
  const std::uint64_t total = kMsgs + kWarmup;
  for (std::uint64_t m = 0; m < total; ++m) {
    if (m == kWarmup) {  // steady state reached: slabs and census are warm
      sim.run_all();
      allocs0 = g_allocs;
    }
    net::Envelope env;
    env.src = NodeId{static_cast<std::uint32_t>(rng.next_below(n))};
    do {
      env.dst = NodeId{static_cast<std::uint32_t>(rng.next_below(n))};
    } while (env.dst == env.src);
    if (m % 8 == 7) {
      env.cls = net::MsgClass::kControl;
      env.payload_bytes = 64;
    } else {
      env.cls = net::MsgClass::kApp;
      env.payload_bytes = 1024;
      env.app_seq = m + 1;
      env.piggy.sn = static_cast<SeqNum>(m % 50);
      if (with_ddv) {
        env.piggy.ddv = {static_cast<SeqNum>(m % 50),
                         static_cast<SeqNum>(m % 31),
                         static_cast<SeqNum>(m % 17)};
      }
    }
    net.send(std::move(env));
    if (m % kBatch == kBatch - 1) sim.run_all();
  }
  sim.run_all();
  const std::uint64_t allocs = g_allocs - allocs0;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(delivered, total);
}

TEST(ZeroAlloc, Msgs) { expect_send_path_allocation_free(/*with_ddv=*/false); }

TEST(ZeroAlloc, MsgsDdv) { expect_send_path_allocation_free(/*with_ddv=*/true); }

/// Tracing off: the recorder pointer is null, the state of every golden
/// run.  The trace's contract is that a disabled site costs nothing.
TEST(ZeroAlloc, TraceOff) {
  constexpr std::uint64_t kSites = 1'000'000;
  obs::Recorder* rec = nullptr;  // tracing off: AgentContext carries null
  const std::uint64_t allocs0 = g_allocs;
  for (std::uint64_t i = 0; i < kSites; ++i) {
    HC3I_OBS(rec, obs::RecordKind::kClcCommit, SimTime{static_cast<std::int64_t>(i)},
             0, 0, i);
  }
  const std::uint64_t allocs = g_allocs - allocs0;
  EXPECT_EQ(allocs, 0u);
}

/// Tracing on: records are encoded into never-relocated byte chunks, so an
/// emit allocates only when it opens a chunk, grows the chunk table
/// (logarithmically) or widens the Recorder's open-round table (once per
/// new highest cluster id, ten at most here).  The stream is the shape of
/// a CLC round: a begin, then acks, on 10 clusters of 1000 nodes.
TEST(ZeroAlloc, TraceOnAllocatesOncePerChunk) {
  constexpr std::uint64_t kEmits = 1'000'000;
  obs::Recorder rec;
  const std::uint64_t allocs0 = g_allocs;
  for (std::uint64_t i = 0; i < kEmits; ++i) {
    rec.emit(i % 64 == 0 ? obs::RecordKind::kClcRoundBegin
                         : obs::RecordKind::kClcAck,
             SimTime{static_cast<std::int64_t>(i * 1000)},
             static_cast<std::uint32_t>(i % 10),
             static_cast<std::uint32_t>(i % 1000), i / 64, i % 100, 100);
  }
  const std::uint64_t allocs = g_allocs - allocs0;
  // A chunk is closed only with fewer than kMaxRecordBytes left.
  const std::uint64_t max_chunks =
      rec.records().bytes() / (obs::TraceBuffer::kChunkBytes -
                               obs::TraceBuffer::kMaxRecordBytes) +
      1;
  EXPECT_EQ(rec.records().size(), kEmits);
  EXPECT_LE(allocs, max_chunks + std::bit_width(max_chunks) + 10);
  EXPECT_LT(allocs * 1000, kEmits) << allocs << " allocations";
}

/// The consistency ledger records every application send and delivery of
/// every run.  Its 16-byte events fill never-relocated chunks, so an append
/// allocates only when it opens a chunk or grows the chunk table
/// (logarithmically); undo and validate's key buffer are outside the loop.
TEST(ZeroAlloc, LedgerAllocatesOncePerChunk) {
  constexpr std::uint64_t kEvents = 1'000'000;
  proto::ConsistencyLedger ledger;
  const std::uint64_t allocs0 = g_allocs;
  for (std::uint64_t i = 0; i < kEvents; ++i) {
    const NodeId n{static_cast<std::uint32_t>(i % 1000)};
    const ClusterId c{n.v / 100};
    if (i % 2 == 0) {
      ledger.record_send(i / 2, n, c);
    } else {
      ledger.record_delivery(i / 2, n, c);
    }
  }
  const std::uint64_t allocs = g_allocs - allocs0;
  const std::uint64_t chunks =
      (kEvents + proto::ConsistencyLedger::kChunkEvents - 1) /
      proto::ConsistencyLedger::kChunkEvents;
  EXPECT_EQ(ledger.total_events(), kEvents);
  EXPECT_LE(allocs, chunks + std::bit_width(chunks) + 2);
  EXPECT_LT(allocs * 1000, kEvents) << allocs << " allocations";
}

/// Heap bytes requested by one seed-1 run of the scale-out scenario
/// (`clusters` x 100 nodes of ring traffic, CLC timers and GC, 10 min).
std::uint64_t scale_run_heap_bytes(std::size_t clusters) {
  driver::RunOptions opts;
  opts.spec = config::scale_federation_spec(clusters, 100, minutes(10));
  opts.seed = 1;
  const std::uint64_t bytes0 = g_alloc_bytes;
  driver::run_simulation(opts);
  return g_alloc_bytes - bytes0;
}

/// Doubling the federation from 5 to 10 clusters doubles heap traffic when
/// every structure is linear in the cluster count and quadruples it with a
/// clusters² term (the census, GC payloads and control plane each had one).
TEST(ScaleAlloc, HeapGrowthFiveToTenClustersIsSubQuadratic) {
  const std::uint64_t half = scale_run_heap_bytes(5);
  const std::uint64_t full = scale_run_heap_bytes(10);
  ASSERT_GT(half, 0u);
  EXPECT_LT(static_cast<double>(full) / static_cast<double>(half), 3.0)
      << half << " -> " << full << " bytes";
}

/// The paper's §5 reference scenario (2 clusters x 100 nodes, 30 min CLC
/// timers) for one simulated hour stays under one allocation per event.
TEST(ScaleAlloc, WholeSimUnderOneAllocPerEvent) {
  driver::RunOptions opts;
  opts.spec.topology = config::paper_reference_topology();
  opts.spec.application = config::paper_reference_application();
  opts.spec.timers =
      config::paper_reference_timers(minutes(30), minutes(30), minutes(30));
  opts.spec.application.total_time = hours(1);
  opts.seed = 1;
  const std::uint64_t allocs0 = g_allocs;
  const auto result = driver::run_simulation(opts);
  const std::uint64_t allocs = g_allocs - allocs0;
  ASSERT_GT(result.events_executed, 0u);
  EXPECT_LT(static_cast<double>(allocs) /
                static_cast<double>(result.events_executed),
            1.0)
      << allocs << " allocations over " << result.events_executed << " events";
}

}  // namespace
}  // namespace hc3i::testing
