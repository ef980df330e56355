// Micro-benchmarks for the simulator substrate hot paths.
//
// Three kernels, each timed with the wall clock and reported as a rate:
//
//   events    — event-queue timer churn: a working set of live timers being
//               cancelled/rescheduled while the queue drains, the pattern CLC
//               period timers generate over a 10-simulated-hour run, mixed
//               with 2PC-shaped fan-outs (one event schedules 99
//               same-instant requests, each of which schedules one reply).
//   msgs      — network send/deliver: every message crosses Network::send
//               (stats census, flight registry, arrival scheduling), the
//               per-message path of Table 1's census.
//   msgs_ddv  — the same kernel with a 3-entry transitive DDV piggyback on
//               every application message (paper §7): the piggyback-dominated
//               message path whose cost Table 1 argues about.
//   whole_sim — an end-to-end run of the paper's §5 reference scenario via
//               driver::run_simulation, the macro number the ROADMAP perf
//               trajectory tracks.
//   scale_fed — the scale-out regime: 10 clusters x 100 nodes of ring
//               traffic with CLC timers and GC enabled
//               (config::scale_federation_spec), run at 5 and at 10
//               clusters so the heap-bytes growth between the two is a
//               first-class number.  The census, GC payloads, and control
//               plane are required to keep that growth sub-quadratic in
//               the cluster count (docs/scaling.md): doubling the clusters
//               must report a heap-growth factor well under 4.
//   scale_fed_faulty — the same scale-out regime under the fixed reference
//               fault campaign (fault::reference_scale_campaign: scripted
//               kill, correlated burst, per-cluster MTBF stream, repeat
//               offender, commit-targeted trigger), also at 5 and 10
//               clusters.  Reports events/s and allocs/event under fault
//               load plus the recovery-cost numbers the CIC literature
//               compares protocols by: rollback-alert fanout, cluster/node
//               rollbacks, replayed messages/bytes and mean recovery
//               latency per cluster count.
//
// Each kernel also reports an allocations-per-op proxy: the bench overrides
// global operator new/delete with counting shims, so the steady-state heap
// traffic of the hot path is a first-class regression number next to the
// rate.  The events, msgs, msgs_ddv and trace_off kernels are
// zero-allocation invariants, not trends: each takes its allocation
// baseline after a warm-up and the process exits non-zero on any
// steady-state allocation.
//
// Emits machine-readable results to BENCH_micro.json (override with --out=)
// so CI can archive the perf trajectory; --dump-counters prints the registry
// dump of a fixed-seed run for bit-reproducibility diffs.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

// --- allocation counting ----------------------------------------------------
// Counting shims for every replaceable allocation function.  Single-threaded
// by construction (the bench is), so a plain counter is exact.

namespace {
std::uint64_t g_allocs = 0;
std::uint64_t g_alloc_bytes = 0;  ///< cumulative requested bytes — the
                                  ///< peak-RSS growth proxy for the
                                  ///< scale_fed sweep (deterministic, unlike
                                  ///< getrusage across kernels)

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

#include "config/presets.hpp"
#include "driver/run.hpp"
#include "fault/campaign.hpp"
#include "net/network.hpp"
#include "obs/trace.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "stats/registry.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/walltime.hpp"

namespace {

using namespace hc3i;
using util::now_sec;

/// Peak resident set size in kilobytes (proxy for allocation discipline).
long peak_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// Enforce a zero-allocation kernel: exit non-zero on any steady-state
/// allocation, so a bench smoke run fails on a regression.
void require_zero_allocs(const char* kernel, std::uint64_t allocs) {
  if (allocs == 0) return;
  std::fprintf(stderr, "%s kernel: %llu steady-state allocations (must be 0)\n",
               kernel, static_cast<unsigned long long>(allocs));
  std::exit(1);
}

struct KernelResult {
  std::uint64_t ops{0};
  double elapsed_sec{0.0};
  std::uint64_t allocs{0};  ///< operator-new calls during the timed region
  std::uint64_t alloc_bytes{0};  ///< bytes requested during the timed region
  double rate() const { return elapsed_sec > 0 ? ops / elapsed_sec : 0.0; }
  double allocs_per_op() const {
    return ops > 0 ? static_cast<double>(allocs) / static_cast<double>(ops)
                   : 0.0;
  }
};

/// Timer-churn kernel: W live timers, each op cancels one and schedules a
/// replacement; every fourth op pops the earliest event.  This is the
/// schedule/cancel/reschedule pattern the CLC timers drive, sustained long
/// enough that per-event bookkeeping (not the heap) dominates.  Every
/// 1024th op also starts a 2PC-shaped fan-out: a root event that schedules
/// 99 same-instant requests, each of which schedules one reply, the shape
/// of a coordinator's request/ack round over identical links.  An untimed
/// first pass runs the identical sequence on the same queue, so the timed
/// pass starts with every slab at its peak and must not allocate at all.
KernelResult bench_events(std::uint64_t ops, std::uint64_t seed) {
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
    RngStream rng(seed, 7);
    for (std::size_t i = 0; i < kWindow; ++i) {
      live[i] = q.schedule(SimTime{static_cast<std::int64_t>(i + 1)},
                           [&fired] { ++fired; });
    }
    SimTime frontier = SimTime::zero();
    for (std::uint64_t op = 0; op < ops; ++op) {
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

  const std::uint64_t scheduled0 = q.scheduled_count();
  const double t0 = now_sec();
  const std::uint64_t allocs0 = g_allocs;
  pass();
  const double elapsed = now_sec() - t0;
  const std::uint64_t allocs = g_allocs - allocs0;
  if (fired == 0) std::fprintf(stderr, "events kernel: nothing fired?\n");
  require_zero_allocs("events", allocs);
  return KernelResult{q.scheduled_count() - scheduled0, elapsed, allocs};
}

/// Network send/deliver kernel over a 2-cluster federation: alternating
/// intra/inter application traffic plus a control-plane share, draining the
/// simulation in batches so the flight table stays populated.  When
/// `with_ddv` is set, every application message carries a 3-entry transitive
/// DDV piggyback (paper §7) — the path where the envelope used to heap-
/// allocate per message.  A warm-up batch runs before the timed region so
/// allocs-per-op reports the steady state, not slab/registry growth.
KernelResult bench_msgs(std::uint64_t msgs, std::uint64_t seed, bool with_ddv) {
  sim::Simulation sim(seed);
  stats::Registry reg;
  const net::Topology topo(config::small_test_spec(2, 32).topology);
  net::Network net(sim, topo, reg);
  std::uint64_t delivered = 0;
  for (std::uint32_t i = 0; i < topo.node_count(); ++i) {
    net.attach(NodeId{i}, [&delivered](const net::Envelope&) { ++delivered; });
  }
  RngStream rng(seed, 11);
  const std::uint32_t n = topo.node_count();

  constexpr std::uint64_t kBatch = 256;
  constexpr std::uint64_t kWarmup = 4 * kBatch;
  double t0 = 0.0;
  std::uint64_t allocs0 = 0;
  const std::uint64_t total = msgs + kWarmup;
  for (std::uint64_t m = 0; m < total; ++m) {
    if (m == kWarmup) {  // steady state reached: slabs and census are warm
      sim.run_all();
      t0 = now_sec();
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
  const double elapsed = now_sec() - t0;
  const std::uint64_t allocs = g_allocs - allocs0;
  if (delivered != total) std::fprintf(stderr, "msgs kernel: lost messages?\n");
  require_zero_allocs(with_ddv ? "msgs_ddv" : "msgs", allocs);
  return KernelResult{msgs, elapsed, allocs};
}

/// End-to-end run of the paper's §5 reference scenario (2 clusters x 100
/// nodes, Table-1 message census) — the "reference kernel" the perf
/// trajectory is judged on.  One simulated hour keeps a bench iteration in
/// seconds while preserving the reference event density.
KernelResult bench_whole_sim(std::uint64_t seed) {
  driver::RunOptions opts;
  opts.spec.topology = config::paper_reference_topology();
  opts.spec.application = config::paper_reference_application();
  opts.spec.timers =
      config::paper_reference_timers(minutes(30), minutes(30), minutes(30));
  opts.spec.application.total_time = hours(1);
  opts.seed = seed;
  const double t0 = now_sec();
  const std::uint64_t allocs0 = g_allocs;
  const std::uint64_t bytes0 = g_alloc_bytes;
  const auto result = driver::run_simulation(opts);
  const double elapsed = now_sec() - t0;
  return KernelResult{result.events_executed, elapsed, g_allocs - allocs0,
                      g_alloc_bytes - bytes0};
}

/// The scale-out kernel: `clusters` clusters x 100 nodes of ring traffic
/// with CLC timers and GC enabled, 10 simulated minutes.  Run at two
/// cluster counts so the heap growth between them (the peak-RSS proxy) is
/// measured, not assumed.
KernelResult bench_scale_fed(std::uint64_t seed, std::size_t clusters) {
  driver::RunOptions opts;
  opts.spec = config::scale_federation_spec(clusters, 100, minutes(10));
  opts.seed = seed;
  const double t0 = now_sec();
  const std::uint64_t allocs0 = g_allocs;
  const std::uint64_t bytes0 = g_alloc_bytes;
  const auto result = driver::run_simulation(opts);
  const double elapsed = now_sec() - t0;
  return KernelResult{result.events_executed, elapsed, g_allocs - allocs0,
                      g_alloc_bytes - bytes0};
}

/// Recovery-cost aggregates of a faulty run (summed across seeds).
struct FaultStats {
  std::uint64_t injected{0};
  std::uint64_t rollbacks{0};
  std::uint64_t nodes_rolled_back{0};
  std::uint64_t alert_fanout{0};
  std::uint64_t replayed_msgs{0};
  std::uint64_t replayed_bytes{0};
  double latency_sum_s{0.0};
  std::uint64_t latency_count{0};
  double mean_latency_s() const {
    return latency_count > 0 ? latency_sum_s / static_cast<double>(latency_count)
                             : 0.0;
  }
};

/// The scale-out kernel under a fixed fault campaign: same topology/traffic
/// as scale_fed, plus scripted kill + burst + MTBF stream + repeat offender
/// + commit-targeted trigger.  The reference campaign runs in legacy
/// serialized mode (comparable with earlier bench history); `overlap` runs
/// the overlapping-burst campaign with concurrent per-cluster recoveries.
/// `out` accumulates the recovery-cost counters next to the rate.
KernelResult bench_scale_fed_faulty(std::uint64_t seed, std::size_t clusters,
                                    bool overlap, FaultStats* out) {
  driver::RunOptions opts;
  opts.spec = config::scale_federation_spec(clusters, 100, minutes(10));
  if (overlap) {
    opts.campaign =
        fault::reference_overlap_campaign(clusters, 100, minutes(10));
  } else {
    opts.campaign =
        fault::reference_scale_campaign(clusters, 100, minutes(10));
    opts.campaign.serialize_faults = true;
  }
  opts.seed = seed;
  const double t0 = now_sec();
  const std::uint64_t allocs0 = g_allocs;
  const std::uint64_t bytes0 = g_alloc_bytes;
  const auto result = driver::run_simulation(opts);
  const double elapsed = now_sec() - t0;
  out->injected += result.counter("fault.injected");
  out->rollbacks += result.counter("rollback.count");
  out->nodes_rolled_back += result.counter("rollback.nodes");
  out->alert_fanout += result.counter("rollback.alerts");
  out->replayed_msgs += result.counter("log.resent_msgs");
  out->replayed_bytes += result.counter("log.resent_bytes");
  const auto& latency = result.registry.summary("fault.recovery_latency_s");
  out->latency_sum_s += latency.sum();
  out->latency_count += latency.count();
  return KernelResult{result.events_executed, elapsed, g_allocs - allocs0,
                      g_alloc_bytes - bytes0};
}

/// Tracing-off kernel: the structured-trace recorder pointer is null — the
/// exact state of every production golden run.  The trace's whole contract
/// is that this costs nothing, so the kernel asserts zero allocations
/// outright (an invariant, not a trend number) and the process exits
/// non-zero on violation.
KernelResult bench_trace_off(std::uint64_t ops) {
  obs::Recorder* rec = nullptr;  // tracing off: AgentContext carries null
  std::uint64_t sunk = 0;
  const double t0 = now_sec();
  const std::uint64_t allocs0 = g_allocs;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const SimTime now{static_cast<std::int64_t>(i)};
    HC3I_OBS(rec, obs::RecordKind::kClcCommit, now, 0, 0, i);
    sunk += i;
  }
  const double elapsed = now_sec() - t0;
  const std::uint64_t allocs = g_allocs - allocs0;
  require_zero_allocs("trace_off", allocs);
  if (sunk == 0 && ops > 1) std::fprintf(stderr, "trace_off: loop elided?\n");
  return KernelResult{ops, elapsed, allocs};
}

void dump_counters() {
  driver::RunOptions opts;
  opts.spec = config::small_test_spec(2, 8);
  opts.spec.application.total_time = hours(1);
  opts.seed = 1;
  const auto result = driver::run_simulation(opts);
  std::fputs(result.registry.dump().c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  for (const std::string& name : flags.names()) {
    if (name != "seeds" && name != "scale" && name != "out" &&
        name != "dump-counters") {
      std::fprintf(stderr, "unknown flag --%s (known: --seeds --scale --out "
                           "--dump-counters)\n", name.c_str());
      return 2;
    }
  }
  if (flags.get_bool("dump-counters", false)) {
    dump_counters();
    return 0;
  }
  const auto seeds = static_cast<std::uint64_t>(flags.get_int("seeds", 1));
  if (seeds < 1) {
    std::fprintf(stderr, "--seeds must be >= 1\n");
    return 2;
  }
  const auto scale = flags.get_double("scale", 1.0);
  const std::string out = flags.get("out", "BENCH_micro.json");
  const auto event_ops = static_cast<std::uint64_t>(4'000'000 * scale);
  const auto msg_ops = static_cast<std::uint64_t>(400'000 * scale);

  KernelResult events, msgs, msgs_ddv, whole, scale_half, scale_full;
  KernelResult faulty_half, faulty_full, overlap_full;
  FaultStats faults_half, faults_full, faults_overlap;
  // Alloc-audit kernel first (it asserts, not just reports): tracing off
  // must cost nothing.
  const KernelResult trace_off = bench_trace_off(
      static_cast<std::uint64_t>(1'000'000 * scale));
  const auto fold = [](KernelResult& acc, const KernelResult& r) {
    acc.ops += r.ops;
    acc.elapsed_sec += r.elapsed_sec;
    acc.allocs += r.allocs;
    acc.alloc_bytes += r.alloc_bytes;
  };
  for (std::uint64_t s = 1; s <= seeds; ++s) {
    fold(events, bench_events(event_ops, s));
    fold(msgs, bench_msgs(msg_ops, s, /*with_ddv=*/false));
    fold(msgs_ddv, bench_msgs(msg_ops, s, /*with_ddv=*/true));
    fold(whole, bench_whole_sim(s));
    fold(scale_half, bench_scale_fed(s, 5));
    fold(scale_full, bench_scale_fed(s, 10));
    fold(faulty_half,
         bench_scale_fed_faulty(s, 5, /*overlap=*/false, &faults_half));
    fold(faulty_full,
         bench_scale_fed_faulty(s, 10, /*overlap=*/false, &faults_full));
    fold(overlap_full,
         bench_scale_fed_faulty(s, 10, /*overlap=*/true, &faults_overlap));
  }
  // 5 -> 10 clusters doubles the federation; linear cost doubles the heap
  // traffic, a clusters² term quadruples it.  This ratio is the scale
  // acceptance number (must stay well under 4).
  const double heap_growth =
      scale_half.alloc_bytes > 0
          ? static_cast<double>(scale_full.alloc_bytes) /
                static_cast<double>(scale_half.alloc_bytes)
          : 0.0;

  std::printf("events    : %12.0f events/sec  (%.4f allocs/op, asserted 0)\n",
              events.rate(), events.allocs_per_op());
  std::printf("msgs      : %12.0f msgs/sec    (%.4f allocs/msg, asserted 0)\n",
              msgs.rate(), msgs.allocs_per_op());
  std::printf("msgs_ddv  : %12.0f msgs/sec    (%.4f allocs/msg, asserted 0)\n",
              msgs_ddv.rate(), msgs_ddv.allocs_per_op());
  std::printf("whole_sim : %12.0f events/sec  (%.4f allocs/event)\n",
              whole.rate(), whole.allocs_per_op());
  std::printf("scale_fed : %12.0f events/sec  (%.4f allocs/event, "
              "10x100 nodes)\n",
              scale_full.rate(), scale_full.allocs_per_op());
  std::printf("scale heap: %12.2fx bytes going 5 -> 10 clusters "
              "(sub-quadratic < 4)\n", heap_growth);
  std::printf("faulty    : %12.0f events/sec  (%.4f allocs/event, 10x100 "
              "under the reference campaign)\n",
              faulty_full.rate(), faulty_full.allocs_per_op());
  std::printf("  5c: %llu faults, %llu rollbacks (%llu nodes), fanout %llu, "
              "replay %llu msgs, latency %.3f s\n",
              static_cast<unsigned long long>(faults_half.injected),
              static_cast<unsigned long long>(faults_half.rollbacks),
              static_cast<unsigned long long>(faults_half.nodes_rolled_back),
              static_cast<unsigned long long>(faults_half.alert_fanout),
              static_cast<unsigned long long>(faults_half.replayed_msgs),
              faults_half.mean_latency_s());
  std::printf(" 10c: %llu faults, %llu rollbacks (%llu nodes), fanout %llu, "
              "replay %llu msgs, latency %.3f s\n",
              static_cast<unsigned long long>(faults_full.injected),
              static_cast<unsigned long long>(faults_full.rollbacks),
              static_cast<unsigned long long>(faults_full.nodes_rolled_back),
              static_cast<unsigned long long>(faults_full.alert_fanout),
              static_cast<unsigned long long>(faults_full.replayed_msgs),
              faults_full.mean_latency_s());
  std::printf("overlap   : %12.0f events/sec  (%.4f allocs/event, 10x100 "
              "under the overlapping-burst campaign)\n",
              overlap_full.rate(), overlap_full.allocs_per_op());
  std::printf(" 10c: %llu faults, %llu rollbacks (%llu nodes), fanout %llu, "
              "replay %llu msgs, latency %.3f s\n",
              static_cast<unsigned long long>(faults_overlap.injected),
              static_cast<unsigned long long>(faults_overlap.rollbacks),
              static_cast<unsigned long long>(
                  faults_overlap.nodes_rolled_back),
              static_cast<unsigned long long>(faults_overlap.alert_fanout),
              static_cast<unsigned long long>(faults_overlap.replayed_msgs),
              faults_overlap.mean_latency_s());
  std::printf("trace_off : %12.0f sites/sec   (%.4f allocs/op, asserted 0)\n",
              trace_off.rate(), trace_off.allocs_per_op());
  std::printf("peak RSS  : %ld KB\n", peak_rss_kb());

  std::FILE* f = std::fopen(out.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot open %s\n", out.c_str());
    return 1;
  }
  const auto kernel_json = [f](const char* name, const KernelResult& r,
                               const char* trailer) {
    std::fprintf(f,
                 "    \"%s\": {\"ops\": %llu, \"elapsed_sec\": %.6f, "
                 "\"allocs\": %llu, \"allocs_per_op\": %.6f}%s\n",
                 name, static_cast<unsigned long long>(r.ops), r.elapsed_sec,
                 static_cast<unsigned long long>(r.allocs), r.allocs_per_op(),
                 trailer);
  };
  const auto fault_json = [f](const char* name, const FaultStats& fs,
                              const char* trailer) {
    std::fprintf(
        f,
        "    \"%s\": {\"injected\": %llu, \"rollbacks\": %llu, "
        "\"nodes_rolled_back\": %llu, \"alert_fanout\": %llu, "
        "\"replayed_msgs\": %llu, \"replayed_bytes\": %llu, "
        "\"mean_recovery_latency_s\": %.6f}%s\n",
        name, static_cast<unsigned long long>(fs.injected),
        static_cast<unsigned long long>(fs.rollbacks),
        static_cast<unsigned long long>(fs.nodes_rolled_back),
        static_cast<unsigned long long>(fs.alert_fanout),
        static_cast<unsigned long long>(fs.replayed_msgs),
        static_cast<unsigned long long>(fs.replayed_bytes),
        fs.mean_latency_s(), trailer);
  };
  std::fprintf(f,
               "{\n"
               "  \"seeds\": %llu,\n"
               "  \"events_per_sec\": %.1f,\n"
               "  \"msgs_per_sec\": %.1f,\n"
               "  \"msgs_ddv_per_sec\": %.1f,\n"
               "  \"whole_sim_events_per_sec\": %.1f,\n"
               "  \"scale_fed_events_per_sec\": %.1f,\n"
               "  \"scale_fed_faulty_events_per_sec\": %.1f,\n"
               "  \"scale_fed_faulty_allocs_per_op\": %.6f,\n"
               "  \"scale_fed_overlap_events_per_sec\": %.1f,\n"
               "  \"scale_fed_overlap_allocs_per_op\": %.6f,\n"
               "  \"msgs_allocs_per_op\": %.6f,\n"
               "  \"msgs_ddv_allocs_per_op\": %.6f,\n"
               "  \"events_allocs_per_op\": %.6f,\n"
               "  \"scale_fed_heap_bytes_5c\": %llu,\n"
               "  \"scale_fed_heap_bytes_10c\": %llu,\n"
               "  \"scale_fed_heap_growth\": %.4f,\n"
               "  \"peak_rss_kb\": %ld,\n"
               "  \"fault_campaign\": {\n",
               static_cast<unsigned long long>(seeds), events.rate(),
               msgs.rate(), msgs_ddv.rate(), whole.rate(), scale_full.rate(),
               faulty_full.rate(), faulty_full.allocs_per_op(),
               overlap_full.rate(), overlap_full.allocs_per_op(),
               msgs.allocs_per_op(), msgs_ddv.allocs_per_op(),
               events.allocs_per_op(),
               static_cast<unsigned long long>(scale_half.alloc_bytes),
               static_cast<unsigned long long>(scale_full.alloc_bytes),
               heap_growth, peak_rss_kb());
  fault_json("clusters_5", faults_half, ",");
  fault_json("clusters_10", faults_full, ",");
  fault_json("clusters_10_overlap", faults_overlap, "");
  std::fprintf(f,
               "  },\n"
               "  \"kernels\": {\n");
  kernel_json("events", events, ",");
  kernel_json("msgs", msgs, ",");
  kernel_json("msgs_ddv", msgs_ddv, ",");
  kernel_json("whole_sim", whole, ",");
  kernel_json("scale_fed", scale_full, ",");
  kernel_json("scale_fed_faulty", faulty_full, ",");
  kernel_json("scale_fed_overlap", overlap_full, ",");
  kernel_json("trace_off", trace_off, "");
  std::fprintf(f, "  }\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", out.c_str());
  return 0;
}
