// Workload binary of the benchmark: runs one workload and prints one JSON
// line per unit of work (a run, or a wide_sweep batch), then one line per
// output check and a closing line with the process's peak RSS.
// benchmark/run.py starts it once per workload and turns the lines into
// metrics; this binary only measures.
//
//   hc3i_bench --workload=steady --seeds=1..15 --setups=10
//              --golden=bench/golden_counters_scale.txt
//   hc3i_bench --workload=faulty --seeds=1,2,3,4 --traced
//
// A unit is one run per listed seed; untraced wide_sweep takes the seeds two
// at a time, one batch each.  Untraced units run through
// driver::run_simulation (batch::Runner for wide_sweep); --setups=R first
// times R set-up-only assemblies of each run.
// --traced re-runs the units through the benchmark's own assembly with
// timing decorators around every agent and AppHandle call, next to an
// untraced twin whose counter dump must match byte for byte.

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "batch/runner.hpp"
#include "json_line.hpp"
#include "obs/export.hpp"
#include "util/flags.hpp"
#include "util/walltime.hpp"
#include "workloads.hpp"

namespace {

using namespace hc3i;
using namespace hc3i::bench;
using util::now_sec;

// --- facts of one untraced run --------------------------------------------

/// The counters the modelled (sim_*) metrics are computed from, read through
/// `get(name)` so a live registry and a Runner dump share one definition.
template <typename Get>
void add_counters(JsonLine& line, Get&& get, std::size_t clusters) {
  std::uint64_t clcs = 0;
  for (std::size_t c = 0; c < clusters; ++c) {
    clcs += get("clc.total.c" + std::to_string(c));
  }
  line.u64("clcs", clcs)
      .u64("ctrl_bytes",
           get("net.ctl.intra.bytes") + get("net.ctl.inter.bytes"))
      .u64("app_msgs", get("net.app.intra.msgs") + get("net.app.inter.msgs"))
      .u64("faults", get("fault.injected"))
      .u64("rollback_nodes", get("rollback.nodes"))
      .u64("stall_us", get("ckpt.stall_us"));
}

/// Counter dump ("name = value" lines) back into a lookup table.
std::map<std::string, std::uint64_t, std::less<>> parse_dump(
    const std::string& dump) {
  std::map<std::string, std::uint64_t, std::less<>> out;
  std::istringstream in(dump);
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t eq = line.find(" = ");
    if (eq != std::string::npos) {
      out[line.substr(0, eq)] = std::stoull(line.substr(eq + 3));
    }
  }
  return out;
}

double sim_minutes(const driver::RunOptions& o) {
  return (o.spec.application.total_time + o.drain).minutes_f();
}

/// Render the exports a storage_traced run pays for after every run.
std::size_t render_exports(const driver::RunResult& r) {
  return obs::trace_json(*r.obs).size() + obs::metrics_tsv(*r.obs).size();
}

std::vector<double> time_setups(const driver::RunOptions& opts, int reps) {
  std::vector<double> out;
  for (int i = 0; i < reps; ++i) {
    out.push_back(assemble(opts, {}, /*setup_only=*/true).setup_s);
  }
  return out;
}

void run_unit(Workload w, std::uint64_t seed, int setups) {
  JsonLine line;
  line.str("kind", "run").u64("seed", seed).str("campaign", workload_name(w));
  const driver::RunOptions opts = run_options(w, seed);
  line.array("setup_s", time_setups(opts, setups));
  const double t0 = now_sec();
  try {
    const driver::RunResult result = driver::run_simulation(opts);
    if (exports_obs(w)) render_exports(result);
    const double wall = now_sec() - t0;
    std::vector<std::int64_t> latency_ns;
    for (const fault::Incident& inc : result.incidents) {
      if (inc.recovery_complete) {
        latency_ns.push_back(inc.recovery_latency().ns);
      }
    }
    line.boolean("ok", true)
        .num("wall_s", wall)
        .u64("events", result.events_executed)
        .num("sim_min", sim_minutes(opts))
        .array("latency_ns", latency_ns);
    add_counters(
        line, [&](const std::string& n) { return result.registry.get(n); },
        opts.spec.topology.cluster_count());
  } catch (const std::exception& e) {
    line.boolean("ok", false).str("error", e.what());
    line.num("wall_s", now_sec() - t0);
  }
  line.emit();
}

void batch_unit(const std::vector<std::uint64_t>& seeds, int setups) {
  const std::vector<batch::RunCase> cases = wide_cases(seeds);
  std::vector<double> setup_s;
  for (const batch::RunCase& rc : cases) {
    for (const double s : time_setups(rc.options(), setups)) {
      setup_s.push_back(s);
    }
  }
  batch::RunnerOptions ropts;
  ropts.threads = 2;
  ropts.keep_dumps = true;  // the sim_* counters come from the dumps
  const batch::BatchReport report = batch::Runner(ropts).run(cases);

  std::string runs = "[";
  for (const batch::CaseResult& cr : report.cases) {
    const auto counters = parse_dump(cr.dump);
    JsonLine run;
    run.u64("seed", cr.seed)
        .str("campaign", cr.campaign)
        .boolean("ok", cr.ok)
        .str("error", cr.error)
        .num("wall_s", cr.wall_sec)
        .u64("events", cr.events)
        .num("sim_min", sim_minutes(cases[cr.index].options()));
    add_counters(
        run,
        [&](const std::string& n) {
          const auto it = counters.find(n);
          return it == counters.end() ? std::uint64_t{0} : it->second;
        },
        cases[cr.index].spec->topology.cluster_count());
    runs += (runs.size() > 1 ? "," : "") + run.text();
  }
  double busy = 0.0, w_min = 1e300, w_max = 0.0;
  std::uint64_t reused = 0, fresh = 0;
  for (const batch::WorkerStats& ws : report.workers) {
    busy += ws.wall_sec;
    w_min = std::min(w_min, ws.wall_sec);
    w_max = std::max(w_max, ws.wall_sec);
    reused += ws.pool_reused;
    fresh += ws.pool_fresh;
  }
  JsonLine line;
  line.str("kind", "batch")
      .u64("seed", seeds.front())
      .array("setup_s", setup_s)
      .num("wall_s", report.wall_sec)
      .u64("threads", report.threads)
      .num("busy_share", busy / (static_cast<double>(report.threads) *
                                 report.wall_sec))
      .num("imbalance_s", w_max - w_min)
      .u64("pool_reused", reused)
      .u64("pool_fresh", fresh)
      .raw("runs", runs + "]");
  line.emit();
}

/// Peak resident set of this process in KiB: VmHWM of /proc/self/status.
/// Not getrusage's ru_maxrss, which Linux carries across exec, so a child
/// would report its parent's peak when that is higher.
std::uint64_t peak_rss_kb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoull(line.substr(6));
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

/// Seed-1 run compared byte for byte with a golden counter dump; for
/// storage_traced its trace and metrics exports are also written to
/// `export_dir` for run.py to parse.
void verify(Workload w, const std::string& golden,
            const std::string& export_dir) {
  JsonLine line;
  line.str("kind", "check").str("name", "golden " + golden);
  std::string detail;
  try {
    const driver::RunResult result = driver::run_simulation(run_options(w, 1));
    std::ifstream in(golden, std::ios::binary);
    std::ostringstream want;
    if (in) want << in.rdbuf();
    if (!in) {
      detail = "cannot read " + golden;
    } else if (want.str() != result.registry.dump()) {
      detail = "seed-1 counter dump differs from " + golden;
    }
    if (exports_obs(w) && !export_dir.empty()) {
      const std::string base = export_dir + "/" + workload_name(w);
      if (!obs::write_text_file(base + ".trace.json",
                                obs::trace_json(*result.obs)) ||
          !obs::write_text_file(base + ".metrics.tsv",
                                obs::metrics_tsv(*result.obs))) {
        detail = "cannot write " + base + ".*";
      }
      line.str("trace", base + ".trace.json")
          .str("metrics", base + ".metrics.tsv");
    }
  } catch (const std::exception& e) {
    detail = e.what();
  }
  line.boolean("ok", detail.empty()).str("detail", detail).emit();
}

// --- traced pass ------------------------------------------------------------

enum Call : std::size_t {
  kStart,
  kAppSend,
  kOnMessage,
  kOnFailure,
  kSnapshot,
  kRestore,
  kDeliver,
  kCallCount
};
constexpr const char* kCallNames[kCallCount] = {
    "agent.start",    "agent.app_send", "agent.on_message",
    "agent.on_failure_detected", "app.snapshot", "app.restore", "app.deliver"};

/// Per-call aggregates: ~3 M calls per run are too many to keep as spans.
struct CallStats {
  std::uint64_t count{0};
  std::int64_t total_ns{0};
  std::int64_t self_ns{0};  ///< total minus nested timed calls
  std::int64_t top_ns{0};   ///< calls not nested in another timed call
  /// Bucket i counts calls of [2^(i-1), 2^i) ns (bucket 0: 0 ns).
  std::vector<std::uint64_t> hist = std::vector<std::uint64_t>(65);
};

/// Times calls from outside the library; a call's self time excludes the
/// timed calls nested inside it (app calls made by an agent handler).
class CallTracer {
 public:
  template <typename F>
  void time(Call k, F&& f) {
    const std::int64_t outer_child = child_ns_;
    child_ns_ = 0;
    ++depth_;
    const auto t0 = std::chrono::steady_clock::now();
    f();
    const std::int64_t dur =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count();
    --depth_;
    CallStats& s = stats_[k];
    ++s.count;
    s.total_ns += dur;
    s.self_ns += dur - child_ns_;
    if (depth_ == 0) s.top_ns += dur;
    ++s.hist[std::bit_width(static_cast<std::uint64_t>(dur))];
    child_ns_ = outer_child + dur;
  }

  void reset() {
    for (CallStats& s : stats_) s = CallStats{};
    child_ns_ = 0;
    depth_ = 0;
  }

  std::string json() const {
    JsonLine out;
    for (std::size_t k = 0; k < kCallCount; ++k) {
      const CallStats& s = stats_[k];
      std::size_t last = s.hist.size();
      while (last > 0 && s.hist[last - 1] == 0) --last;
      JsonLine one;
      one.u64("count", s.count)
          .num("total_ns", static_cast<double>(s.total_ns))
          .num("self_ns", static_cast<double>(s.self_ns))
          .num("top_ns", static_cast<double>(s.top_ns))
          .array("hist", std::vector<std::uint64_t>(s.hist.begin(),
                                                    s.hist.begin() + last));
      out.raw(kCallNames[k], one.text());
    }
    return out.text();
  }

 private:
  std::array<CallStats, kCallCount> stats_{};
  std::int64_t child_ns_{0};
  int depth_{0};
};

class TimedAgent final : public proto::ProtocolAgent {
 public:
  TimedAgent(const proto::AgentContext& ctx,
             std::unique_ptr<proto::ProtocolAgent> inner, CallTracer& tracer)
      : ProtocolAgent(ctx), inner_(std::move(inner)), tracer_(tracer) {}

  void start() override {
    tracer_.time(kStart, [&] { inner_->start(); });
  }
  void app_send(NodeId dst, std::uint64_t bytes,
                std::uint64_t app_seq) override {
    tracer_.time(kAppSend, [&] { inner_->app_send(dst, bytes, app_seq); });
  }
  void on_message(const net::Envelope& env) override {
    tracer_.time(kOnMessage, [&] { inner_->on_message(env); });
  }
  void on_failure_detected(NodeId failed) override {
    tracer_.time(kOnFailure, [&] { inner_->on_failure_detected(failed); });
  }

 private:
  std::unique_ptr<proto::ProtocolAgent> inner_;
  CallTracer& tracer_;
};

class TimedApp final : public proto::AppHandle {
 public:
  TimedApp(proto::AppHandle* inner, CallTracer& tracer)
      : inner_(inner), tracer_(tracer) {}
  TimedApp(const TimedApp&) = delete;
  TimedApp& operator=(const TimedApp&) = delete;

  proto::AppSnapshot snapshot() const override {
    proto::AppSnapshot s;
    tracer_.time(kSnapshot, [&] { s = std::as_const(*inner_).snapshot(); });
    return s;
  }
  proto::AppSnapshot snapshot(storage::CaptureMode mode) override {
    proto::AppSnapshot s;
    tracer_.time(kSnapshot, [&] { s = inner_->snapshot(mode); });
    return s;
  }
  void freeze() override { inner_->freeze(); }
  void restore(const proto::AppSnapshot& snap) override {
    tracer_.time(kRestore, [&] { inner_->restore(snap); });
  }
  void deliver(const net::Envelope& env) override {
    tracer_.time(kDeliver, [&] { inner_->deliver(env); });
  }

 private:
  proto::AppHandle* inner_;
  CallTracer& tracer_;
};

/// Coarse spans as [name, start, end] triples (util::now_sec seconds).
std::string spans_json(const std::vector<Span>& spans) {
  std::string out = "[";
  for (const Span& s : spans) {
    char buf[128];
    std::snprintf(buf, sizeof buf, "%s[\"%s\",%.17g,%.17g]",
                  out.size() > 1 ? "," : "", s.name, s.start, s.end);
    out += buf;
  }
  return out + "]";
}

/// One traced run next to its untraced twin (wall time and counter dump).
void traced_run(Workload w, const driver::RunOptions& opts,
                const std::string& campaign, double twin_wall,
                const std::string& twin_dump, CallTracer& tracer) {
  JsonLine line;
  line.str("kind", "traced")
      .u64("seed", opts.seed)
      .str("campaign", campaign)
      .num("untraced_wall_s", twin_wall);
  tracer.reset();
  std::deque<TimedApp> apps;
  Hooks hooks;
  hooks.wrap_factory = [&tracer](proto::AgentFactory inner) {
    return proto::AgentFactory(
        [inner = std::move(inner), &tracer](const proto::AgentContext& ctx) {
          return std::make_unique<TimedAgent>(ctx, inner(ctx), tracer);
        });
  };
  hooks.wrap_apps = [&apps, &tracer](const std::vector<proto::AppHandle*>& in) {
    std::vector<proto::AppHandle*> out;
    for (proto::AppHandle* a : in) out.push_back(&apps.emplace_back(a, tracer));
    return out;
  };
  const double t0 = now_sec();
  try {
    Assembled run = assemble(opts, hooks);
    if (exports_obs(w)) {
      const double e0 = now_sec();
      render_exports(run.result);
      run.phases.push_back(Span{"export", e0, now_sec()});
    }
    const double t1 = now_sec();
    run.phases.insert(run.phases.begin(), Span{"run", t0, t1});
    const stats::Registry& reg = run.result.registry;
    const bool same = run.result.registry.dump() == twin_dump;
    line.boolean("ok", same)
        .str("error", same ? "" : "traced dump differs from its untraced twin")
        .num("traced_wall_s", t1 - t0)
        .num("setup_s", run.setup_s)
        .u64("events", run.result.events_executed)
        .u64("msgs",
             reg.get("net.app.intra.msgs") + reg.get("net.app.inter.msgs") +
                 reg.get("net.ctl.intra.msgs") + reg.get("net.ctl.inter.msgs"))
        .u64("faults", reg.get("fault.injected"))
        .u64("rollbacks", reg.get("rollback.count"))
        .u64("queued", reg.get("fault.queued_same_cluster") +
                           reg.get("fault.deferred"))
        .u64("ckpt_written", reg.get("ckpt.bytes_written"))
        .u64("ckpt_saved", reg.get("ckpt.bytes_delta_saved"))
        .u64("recovery_read_us", reg.get("recovery.read_us"))
        .raw("calls", tracer.json())
        .raw("spans", spans_json(run.phases));
  } catch (const std::exception& e) {
    line.boolean("ok", false).str("error", e.what());
  }
  line.emit();
}

void traced_unit(Workload w, std::uint64_t seed, CallTracer& tracer) {
  if (w != Workload::kWideSweep) {
    const driver::RunOptions opts = run_options(w, seed);
    const double t0 = now_sec();
    std::string twin_dump;
    try {
      const driver::RunResult twin = driver::run_simulation(opts);
      if (exports_obs(w)) render_exports(twin);
      twin_dump = twin.registry.dump();
    } catch (const std::exception& e) {
      JsonLine line;
      line.str("kind", "traced").u64("seed", seed).boolean("ok", false)
          .str("error", std::string("untraced twin: ") + e.what()).emit();
      return;
    }
    traced_run(w, opts, workload_name(w), now_sec() - t0, twin_dump, tracer);
    return;
  }
  // wide_sweep: the seed under both campaigns; the twins run through the
  // Runner on one thread.
  const std::vector<batch::RunCase> cases = wide_cases({seed});
  batch::RunnerOptions ropts;
  ropts.threads = 1;
  ropts.keep_dumps = true;
  const batch::BatchReport twins = batch::Runner(ropts).run(cases);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    traced_run(w, cases[i].options(), cases[i].campaign,
               twins.cases[i].wall_sec, twins.cases[i].dump, tracer);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags = Flags::parse(argc, argv);
    for (const std::string& name : flags.names()) {
      if (name != "workload" && name != "seeds" && name != "setups" &&
          name != "traced" && name != "golden" && name != "export-dir") {
        std::fprintf(stderr,
                     "unknown flag --%s (known: --workload --seeds --setups "
                     "--traced --golden --export-dir)\n",
                     name.c_str());
        return 2;
      }
    }
    const auto w = parse_workload(flags.get("workload", ""));
    const std::int64_t setups = flags.get_int("setups", 0);
    if (!w || setups < 0) {
      std::fprintf(stderr,
                   "need --workload=steady|faulty|storage_traced|wide_sweep "
                   "and --setups >= 0\n");
      return 2;
    }
    const std::vector<std::uint64_t> seeds =
        flags.has("seeds") ? batch::parse_seed_list(flags.get("seeds", ""))
                           : std::vector<std::uint64_t>{};
    CallTracer tracer;
    const bool traced = flags.get_bool("traced", false);
    const std::size_t per_unit =
        !traced && *w == Workload::kWideSweep ? 2 : 1;
    for (std::size_t i = 0; i < seeds.size(); i += per_unit) {
      if (traced) {
        traced_unit(*w, seeds[i], tracer);
      } else if (*w == Workload::kWideSweep) {
        batch_unit({seeds.begin() + i,
                    seeds.begin() + std::min(i + per_unit, seeds.size())},
                   static_cast<int>(setups));
      } else {
        run_unit(*w, seeds[i], static_cast<int>(setups));
      }
    }
    if (flags.has("golden")) {
      verify(*w, flags.get("golden", ""), flags.get("export-dir", ""));
    }
    JsonLine end;
    end.str("kind", "end").u64("peak_rss_kb", peak_rss_kb());
    end.emit();
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hc3i_bench: %s\n", e.what());
    return 1;
  }
}
