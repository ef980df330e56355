// Per-layer kernels of the benchmark: one timed loop per layer boundary that
// the end-to-end runs cannot isolate from outside.  Each kernel prints one
// JSON line with its repetition samples; benchmark/run.py reports their
// median, min and max.
//
//   hc3i_kernels --seed=1
//
// The recovery-line, GC-bound, GC-wire, chain-read, export and registry
// kernels take their inputs from runs assembled like the workloads' (see
// harvest()): inputs with the shape the protocol really sees, not synthetic
// ones.  This is the only benchmark binary with the counting operator new,
// so allocation counts are exact here and the workload binary keeps the
// plain allocator.

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>

namespace {
std::uint64_t g_allocs = 0;  // single-threaded binary: a plain counter is exact

void* counted_alloc(std::size_t n) {
  ++g_allocs;
  void* p = std::malloc(n != 0 ? n : 1);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

void* counted_alloc(std::size_t n, std::align_val_t align) {
  ++g_allocs;
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(align), n != 0 ? n : 1)) {
    throw std::bad_alloc{};
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n != 0 ? n : 1);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  ++g_allocs;
  return std::malloc(n != 0 ? n : 1);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, a);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, a);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

#include <algorithm>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "config/presets.hpp"
#include "hc3i/control.hpp"
#include "json_line.hpp"
#include "net/network.hpp"
#include "obs/export.hpp"
#include "proto/gc_wire.hpp"
#include "proto/recovery_line.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "storage/state_region.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"
#include "util/walltime.hpp"
#include "workloads.hpp"

namespace {

using namespace hc3i;
using namespace hc3i::bench;
using util::now_sec;

constexpr int kReps = 5;  ///< repetitions of every timed kernel
/// Kernel results are stored here so the timed work cannot be optimised out.
volatile std::uint64_t g_sink = 0;

/// One kernel line: its repetition samples, or the one value of a count.
void report(const std::string& name, const char* unit,
            const std::vector<double>& samples) {
  JsonLine line;
  line.str("kind", "kernel").str("name", name).str("unit", unit);
  line.array("samples", samples).emit();
}

/// Seconds per call of `op`, over enough calls that one repetition lasts
/// about `target_s` (calibrated on one untimed call).
template <typename Op>
std::vector<double> per_call(Op&& op, double target_s = 0.03) {
  double t = now_sec();
  op();
  const double once = std::max(now_sec() - t, 1e-9);
  const auto calls = static_cast<std::uint64_t>(
      std::clamp(target_s / once, 1.0, 1e8));
  std::vector<double> out;
  for (int r = 0; r < kReps; ++r) {
    t = now_sec();
    for (std::uint64_t i = 0; i < calls; ++i) op();
    out.push_back((now_sec() - t) / static_cast<double>(calls));
  }
  return out;
}

std::vector<double> scaled(std::vector<double> v, double k) {
  for (double& x : v) x *= k;
  return v;
}

// --- harvested inputs -------------------------------------------------------

/// What a finished run leaves for the kernels: every cluster's retained
/// checkpoint metadata, light copies of its stores (app parts only, enough
/// for chain reads), the run's registry and its observability recording.
struct Harvest {
  std::vector<std::vector<proto::ClcMeta>> metas;
  std::vector<proto::ClcStore> stores;
  driver::RunResult result;
};

Harvest harvest(const driver::RunOptions& opts) {
  Harvest h;
  Hooks hooks;
  hooks.inspect = [&h](const core::Hc3iRuntime& rt) {
    for (std::size_t c = 0; c < rt.cluster_count(); ++c) {
      const ClusterId cid{static_cast<std::uint32_t>(c)};
      const proto::ClcStore& store = rt.store(cid);
      const std::uint32_t nodes = rt.spec().topology.clusters[c].nodes;
      proto::ClcStore& copy =
          h.stores.emplace_back(cid, nodes, store.replication());
      std::vector<proto::ClcMeta>& metas = h.metas.emplace_back();
      for (const proto::ClcRecord& r : store.records()) {
        metas.push_back(proto::ClcMeta{r.sn, r.ddv});
        proto::ClcRecord light;
        light.sn = r.sn;
        light.ddv = r.ddv;
        light.parts.resize(r.parts.size());
        for (std::size_t i = 0; i < r.parts.size(); ++i) {
          light.parts[i].app = r.parts[i].app;
        }
        copy.commit(std::move(light));
      }
    }
  };
  h.result = assemble(opts, hooks).result;
  return h;
}

/// A run stopped at `stop` with no drain: the stores as the first GC round
/// (every 10 min in the scale scenario) or a recovery at that instant sees
/// them, before anything is pruned.
driver::RunOptions stopped_at(driver::RunOptions opts, SimTime stop) {
  opts.spec.application.total_time = stop;
  opts.drain = SimTime::zero();
  opts.validate = false;  // messages are legitimately in flight at the stop
  return opts;
}

// --- kernels ----------------------------------------------------------------

/// EventQueue churn: a window of live timers cancelled and rescheduled while
/// the queue drains — the pattern CLC period timers drive.
void event_kernel(std::uint64_t seed) {
  constexpr std::size_t kWindow = 8192;
  constexpr std::uint64_t kOps = 400'000;
  std::vector<double> ns, allocs;
  for (int r = 0; r < kReps; ++r) {
    sim::EventQueue q;
    RngStream rng(seed, 7);
    std::uint64_t fired = 0;
    std::vector<sim::EventId> live(kWindow);
    for (std::size_t i = 0; i < kWindow; ++i) {
      live[i] = q.schedule(SimTime{static_cast<std::int64_t>(i + 1)},
                           [&fired] { ++fired; });
    }
    SimTime frontier = SimTime::zero();
    double t0 = 0.0;
    std::uint64_t a0 = 0;
    for (std::uint64_t op = 0; op < 2 * kOps; ++op) {
      if (op == kOps) {  // first half warms the slab and free lists
        t0 = now_sec();
        a0 = g_allocs;
      }
      const std::size_t idx = op % kWindow;
      q.cancel(live[idx]);
      const auto jitter = static_cast<std::int64_t>(rng.next_below(1000) + 1);
      live[idx] = q.schedule(frontier + SimTime{jitter}, [&fired] { ++fired; });
      if (op % 4 == 0) {
        auto [t, cb] = q.pop();
        frontier = t;
        cb();
      }
    }
    const double elapsed = now_sec() - t0;
    const std::uint64_t allocated = g_allocs - a0;  // before the push_backs
    ns.push_back(elapsed * 1e9 / kOps);
    allocs.push_back(static_cast<double>(allocated) / kOps);
    if (fired == 0) std::fprintf(stderr, "event kernel: nothing fired\n");
  }
  report("sim.event_ns", "ns", ns);
  report("sim.event_allocs", "allocs/op", allocs);
}

/// Network::send plus delivery: random node pairs, one message in eight on
/// the control plane, drained in batches so the flight table stays
/// populated.  App messages carry `ddv` as their piggyback when it is set.
void send_kernel(const char* name, const config::TopologySpec& spec,
                 const proto::Ddv& ddv, std::uint64_t seed,
                 const char* allocs_name) {
  constexpr std::uint64_t kMsgs = 200'000;
  constexpr std::uint64_t kBatch = 256;
  std::vector<double> ns, allocs;
  for (int r = 0; r < kReps; ++r) {
    sim::Simulation sim(seed);
    stats::Registry reg;
    const net::Topology topo(spec);
    net::Network net(sim, topo, reg);
    std::uint64_t delivered = 0;
    for (std::uint32_t i = 0; i < topo.node_count(); ++i) {
      net.attach(NodeId{i},
                 [&delivered](const net::Envelope&) { ++delivered; });
    }
    RngStream rng(seed, 11);
    const std::uint32_t n = topo.node_count();
    double t0 = 0.0;
    std::uint64_t a0 = 0;
    for (std::uint64_t m = 0; m < 2 * kMsgs; ++m) {
      if (m == kMsgs) {  // first half warms slabs and census handles
        sim.run_all();
        t0 = now_sec();
        a0 = g_allocs;
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
        env.payload_bytes = 4096;
        env.app_seq = m + 1;
        env.piggy.sn = static_cast<SeqNum>(m % 50);
        env.piggy.ddv = ddv;
      }
      net.send(std::move(env));
      if (m % kBatch == kBatch - 1) sim.run_all();
    }
    sim.run_all();
    const double elapsed = now_sec() - t0;
    const std::uint64_t allocated = g_allocs - a0;  // before the push_backs
    ns.push_back(elapsed * 1e9 / kMsgs);
    allocs.push_back(static_cast<double>(allocated) / kMsgs);
    if (delivered != 2 * kMsgs) {
      std::fprintf(stderr, "%s: lost messages\n", name);
    }
  }
  report(name, "ns", ns);
  if (allocs_name != nullptr) report(allocs_name, "allocs/msg", allocs);
}

/// One cluster of 100 nodes whose only activity is timer CLCs: the 2PC round
/// through the agent handlers, host microseconds per committed CLC.
void clc_round_kernel(std::uint64_t seed) {
  driver::RunOptions opts;
  opts.spec = config::scale_federation_spec(1, 100, minutes(10));
  opts.spec.application.clusters[0].traffic = {0.0};
  opts.spec.application.clusters[0].mean_compute = hours(1000);
  opts.spec.timers.clusters[0].clc_period = seconds(1);
  opts.spec.timers.gc_period = SimTime::infinity();
  opts.seed = seed;
  std::vector<double> us;
  std::uint64_t rounds = 0;
  for (int r = 0; r < kReps; ++r) {
    const Assembled run = assemble(opts);
    double loop = 0.0;
    for (const Span& s : run.phases) {
      if (std::string_view(s.name) == "loop") loop = s.end - s.start;
    }
    rounds = run.result.registry.get("clc.total.c0") -
             run.result.registry.get("clc.initial.c0");
    us.push_back(loop * 1e6 / static_cast<double>(rounds));
  }
  report("hc3i.clc_round_us", "us", us);
  report("hc3i.clc_rounds", "count", {static_cast<double>(rounds)});
}

std::size_t total_records(
    const std::vector<std::vector<proto::ClcMeta>>& metas) {
  std::size_t n = 0;
  for (const auto& m : metas) n += m.size();
  return n;
}

/// Recovery line, GC bound and DDV merge over one harvested metadata set.
void proto_kernels(const std::vector<std::vector<proto::ClcMeta>>& metas,
                   const std::string& suffix) {
  const std::size_t clusters = metas.size();
  std::uint64_t sink = 0;
  report("proto.ddv_merge_ns" + suffix, "ns",
         scaled(per_call([&] {
                  // Every harvested DDV merged into one accumulator: mostly
                  // the dominated, write-free case the agents hit per ack.
                  proto::Ddv acc(metas[0][0].ddv.data(), clusters);
                  for (const auto& list : metas) {
                    for (const proto::ClcMeta& m : list) acc.merge_max(m.ddv);
                  }
                  sink += acc[0];
                }),
                1e9 / static_cast<double>(total_records(metas))));
  std::uint32_t faulty = 0;
  report("proto.line_us" + suffix, "us",
         scaled(per_call([&] {
                  const proto::RecoveryLine line = proto::compute_recovery_line(
                      metas, ClusterId{faulty});
                  faulty = (faulty + 1) % static_cast<std::uint32_t>(clusters);
                  sink += line.restored[0];
                }),
                1e6));
  report("proto.gc_bound_us" + suffix, "us",
         scaled(per_call([&] { sink += proto::gc_min_restored_sns(metas)[0]; }),
                1e6));
  g_sink = sink;
}

/// The GC response encoding over every cluster's harvested metadata.
void gc_wire_kernels(const std::vector<std::vector<proto::ClcMeta>>& metas) {
  const double records = static_cast<double>(total_records(metas));
  std::vector<proto::EncodedClcMetas> encoded;
  std::uint64_t wire = 0, flat = 0;
  for (const auto& list : metas) {
    encoded.push_back(proto::encode_clc_metas(list));
    wire += encoded.back().wire_bytes();
    flat += proto::uncompressed_clc_metas_bytes(
        list.size(), metas.size(), core::ControlSizes::kPerDdvEntry);
  }
  std::uint64_t sink = 0;
  report("proto.gc_encode_ns", "ns",
         scaled(per_call([&] {
                  for (const auto& list : metas) {
                    sink += proto::encode_clc_metas(list).wire_bytes();
                  }
                }),
                1e9 / records));
  report("proto.gc_decode_ns", "ns",
         scaled(per_call([&] {
                  for (const auto& enc : encoded) {
                    sink += proto::decode_clc_metas(enc).size();
                  }
                }),
                1e9 / records));
  report("proto.gc_wire_ratio", "share",
         {static_cast<double>(wire) / static_cast<double>(flat)});
  g_sink = sink;
}

void storage_kernels(const std::vector<proto::ClcStore>& stores) {
  // Incremental capture of one workload node's modelled region: the steps
  // between two CLCs touch consecutive strides, as app::WorkloadNode does.
  constexpr std::uint64_t kState = 64 * 1024;
  constexpr std::uint64_t kStride = kState / 1024;
  storage::StateRegion region(kState);
  std::uint64_t progress = 0, sink = 0;
  report("storage.capture_ns", "ns",
         scaled(per_call([&] {
                  for (int step = 0; step < 8; ++step, ++progress) {
                    region.touch((progress * kStride) % kState, kStride);
                  }
                  sink += region.capture(storage::CaptureMode::kIncremental)
                              .length;
                }),
                1e9));

  // Chain rebuild of a materialized 1 MiB region: base + 8 deltas.
  constexpr std::uint64_t kMiB = 1024 * 1024;
  storage::StateRegion real(kMiB, storage::StateRegion::Content::kMaterialized);
  std::vector<storage::CaptureRecord> chain;
  real.touch(0, kMiB, 1);
  chain.push_back(real.capture(storage::CaptureMode::kFull));
  for (std::uint64_t d = 0; d < 8; ++d) {
    real.touch((d * 97 * 1024) % kMiB, 16 * 1024, d + 2);
    chain.push_back(real.capture(storage::CaptureMode::kIncremental));
  }
  report("storage.rebuild_us", "us",
         scaled(per_call([&] {
                  sink += storage::StateRegion::rebuild(kMiB, chain)[7];
                }),
                1e6));

  // Chain-read sizing, every node of every retained record of every store.
  double calls = 0;
  for (const proto::ClcStore& s : stores) {
    calls += static_cast<double>(s.size()) * s.records().front().parts.size();
  }
  report("storage.chain_read_ns", "ns",
         scaled(per_call([&] {
                  for (const proto::ClcStore& s : stores) {
                    const auto nodes = static_cast<std::uint32_t>(
                        s.records().front().parts.size());
                    for (const proto::ClcRecord& r : s.records()) {
                      for (std::uint32_t i = 0; i < nodes; ++i) {
                        sink += s.chain_read_bytes(r.sn, i);
                      }
                    }
                  }
                }),
                1e9 / calls));
  g_sink = sink;
}

/// Recording off (null recorder behind an opaque load, like an agent's
/// context field), recording on, and the exporters over a real recording.
bool obs_kernels(const obs::Recording& rec) {
  constexpr std::uint64_t kSites = 2'000'000;
  obs::Recorder* volatile off_slot = nullptr;
  std::vector<double> off_ns;
  std::uint64_t off_allocs = 0;
  for (int r = 0; r < kReps; ++r) {
    const std::uint64_t a0 = g_allocs;
    const double t0 = now_sec();
    for (std::uint64_t i = 0; i < kSites; ++i) {
      obs::Recorder* recorder = off_slot;
      HC3I_OBS(recorder, obs::RecordKind::kClcAck,
               SimTime{static_cast<std::int64_t>(i)}, 0, 0, i);
    }
    const double elapsed = now_sec() - t0;
    off_allocs += g_allocs - a0;  // before the push_back
    off_ns.push_back(elapsed * 1e9 / kSites);
  }
  report("obs.off_ns", "ns", off_ns);
  report("obs.off_allocs", "allocs/op",
         {static_cast<double>(off_allocs) / (kSites * kReps)});

  constexpr std::uint64_t kEmits = 1'000'000;
  std::vector<double> emit_ns;
  for (int r = 0; r < kReps; ++r) {
    obs::Recorder recorder;
    const double t0 = now_sec();
    for (std::uint64_t i = 0; i < kEmits; ++i) {
      recorder.emit(i % 64 == 0 ? obs::RecordKind::kClcRoundBegin
                                : obs::RecordKind::kClcAck,
                    SimTime{static_cast<std::int64_t>(i)},
                    static_cast<std::uint32_t>(i % 10),
                    static_cast<std::uint32_t>(i % 1000),
                    i / 64, i % 100, 100);
    }
    emit_ns.push_back((now_sec() - t0) * 1e9 / kEmits);
  }
  report("obs.emit_ns", "ns", emit_ns);

  const auto records = static_cast<double>(rec.recorder.records().size());
  std::vector<double> export_ns, tsv_ms;
  std::size_t bytes = 0, tsv_bytes = 0;
  for (int r = 0; r < kReps; ++r) {
    double t0 = now_sec();
    bytes = obs::trace_json(rec).size();
    export_ns.push_back((now_sec() - t0) * 1e9 / records);
    t0 = now_sec();
    tsv_bytes += obs::metrics_tsv(rec).size();
    tsv_ms.push_back((now_sec() - t0) * 1e3);
  }
  if (tsv_bytes == 0) std::fprintf(stderr, "obs kernels: no metrics rows\n");
  report("obs.records", "count", {records});
  report("obs.export_ns_per_record", "ns", export_ns);
  report("obs.trace_bytes_per_record", "B",
         {static_cast<double>(bytes) / records});
  report("obs.metrics_tsv_ms", "ms", tsv_ms);
  return off_allocs == 0;
}

void stats_kernels(const stats::Registry& reg) {
  stats::Registry scratch;
  std::vector<stats::Counter*> counters;
  for (int i = 0; i < 64; ++i) {
    counters.push_back(&scratch.counter("kernel.c" + std::to_string(i)));
  }
  constexpr std::uint64_t kIncs = 10'000'000;
  std::vector<double> inc_ns;
  for (int r = 0; r < kReps; ++r) {
    const double t0 = now_sec();
    for (std::uint64_t i = 0; i < kIncs; ++i) counters[i & 63]->inc(i);
    inc_ns.push_back((now_sec() - t0) * 1e9 / kIncs);
  }
  report("stats.inc_ns", "ns", inc_ns);
  std::size_t sink = counters[5]->value();
  report("stats.dump_ms", "ms",
         scaled(per_call([&] { sink += reg.dump().size(); }), 1e3));
  report("stats.copy_ms", "ms",
         scaled(per_call([&] {
                  const stats::Registry copy(reg);
                  sink += copy.get("app.sends");
                }),
                1e3));
  g_sink = sink;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags = Flags::parse(argc, argv);
    for (const std::string& name : flags.names()) {
      if (name != "seed") {
        std::fprintf(stderr, "unknown flag --%s (known: --seed)\n",
                     name.c_str());
        return 2;
      }
    }
    const std::int64_t seed_flag = flags.get_int("seed", 1);
    if (seed_flag < 0) {
      std::fprintf(stderr, "need --seed >= 0\n");
      return 2;
    }
    const auto seed = static_cast<std::uint64_t>(seed_flag);

    event_kernel(seed);
    const config::TopologySpec two = config::small_test_spec(2, 32).topology;
    send_kernel("net.send_ns", two, proto::Ddv{}, seed, "net.allocs_per_msg");
    send_kernel("net.send_ddv3_ns", two, proto::Ddv{5, 3, 1}, seed, nullptr);
    std::vector<SeqNum> wide(100);
    for (std::size_t i = 0; i < wide.size(); ++i) {
      wide[i] = static_cast<SeqNum>(i % 7);
    }
    send_kernel("net.send_ddv100_ns",
                config::scale_federation_spec(100, 4).topology,
                proto::Ddv(wide), seed, nullptr);
    clc_round_kernel(seed);

    // Harvests: the steady and wide_sweep shapes just before their first GC
    // round, and a full storage_traced run.
    const Harvest c10 = harvest(stopped_at(run_options(Workload::kSteady, seed),
                                           minutes(10) - seconds(1)));
    const driver::RunOptions wide_opts = wide_cases({seed}).front().options();
    const Harvest c100 = harvest(stopped_at(wide_opts, minutes(5)));
    const Harvest traced = harvest(run_options(Workload::kStorageTraced, seed));

    proto_kernels(c10.metas, ".c10");
    proto_kernels(c100.metas, ".c100");
    gc_wire_kernels(c10.metas);
    storage_kernels(traced.stores);
    const bool off_free = obs_kernels(*traced.result.obs);
    stats_kernels(traced.result.registry);

    JsonLine check;
    check.str("kind", "check")
        .str("name", "obs.off_allocs == 0")
        .boolean("ok", off_free)
        .str("detail", off_free ? "" : "recording off allocated");
    check.emit();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hc3i_kernels: %s\n", e.what());
    return 1;
  }
}
