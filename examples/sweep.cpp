// Sharded sweep driver: parameter sweeps as a service.
//
// Expands a topology x campaign x seed grid and shards the runs across
// worker threads, each worker owning its full simulation context (payload
// pools included — see src/batch/ and driver/sim_context.hpp).  Per-run
// results are byte-identical to solo single-threaded runs of the same
// (spec, seed) regardless of thread count; the aggregated report is in grid
// order, independent of scheduling.
//
//   ./sweep                                        # 2,5,10-cluster grid x 3 seeds
//   ./sweep --clusters=2,5,10 --campaigns=none,faulty --seeds=1..5
//   ./sweep --clusters=2,4,6,8,10 --minutes=30 --seeds=1
//                                                  # cluster-count scaling
//   ./sweep --clusters=2,5,10 --campaigns=mtbf:10min,mtbf:5min,mtbf:2min \
//           --minutes=20 --seeds=1                 # recovery cost vs fault
//                                                  #   rate
//   ./sweep --nodes=50 --minutes=10 --threads=4 --json
//   ./sweep --config=my_sweep.ini                  # the sweep config kind
//                                                  #   (batch::parse_sweep)
//   ./sweep --grid=determinism                     # CI seed-grid check: the
//                                                  #   10x100 overlap scenario,
//                                                  #   10 seeds x 2 runs, every
//                                                  #   pair byte-compared, plus
//                                                  #   one storage-charged cell
//   ./sweep --grid=storage                         # optimal-interval table:
//                                                  #   checkpoint interval x
//                                                  #   storage bandwidth for
//                                                  #   both backends
//   ./sweep --obs-dir=traces [--metrics-interval=30s]
//                                                  # per-case observability:
//                                                  #   every grid cell writes
//                                                  #   traces/case<i>.trace.json
//                                                  #   (+ .metrics.tsv); paths
//                                                  #   are disjoint per case so
//                                                  #   shards never collide
//
// --campaigns kinds: none (failure-free), faulty (the reference campaign,
// as configs/scale/faulty.campaign), overlap (the overlapping-burst
// campaign: concurrent per-cluster recoveries; needs >= 4 clusters), and
// mtbf:<duration> (one federation-wide Poisson failure stream of that MTBF);
// a sweep file's [campaign] kind takes the same tokens.
//
// The table sums each (topology, campaign) cell over its seeds: events,
// clcs, faults, rb (cluster rollbacks, cascades included), fanout (rollback
// alerts received federation-wide), replay (logged messages re-sent),
// lost_s (node-seconds of recomputation) and gc_saved_B (GC response bytes
// the delta encoding avoided).  lat_ms is the mean injection-to-resume
// recovery latency; pairs (cluster pairs that carried application traffic)
// and max_clcs (retained-CLC high-water across clusters) are maxima.
//
// Exit status: 0 all runs clean, 1 any violation/mismatch, 2 usage error.

#include <cstdio>
#include <string>
#include <vector>

#include "batch/runner.hpp"
#include "batch/sweep.hpp"
#include "config/parser.hpp"
#include "config/spec.hpp"
#include "util/check.hpp"
#include "util/flags.hpp"
#include "util/quantity.hpp"

using namespace hc3i;

namespace {

/// Run a sweep twice and byte-compare each case's counter dump, printing one
/// line per case under `label`.  Returns the number of mismatching cases.
std::size_t compare_two_passes(const batch::Runner& runner,
                               const batch::SweepSpec& sweep,
                               const char* label) {
  const batch::BatchReport a = runner.run(sweep);
  const batch::BatchReport b = runner.run(sweep);
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < a.cases.size(); ++i) {
    const batch::CaseResult& ca = a.cases[i];
    const batch::CaseResult& cb = b.cases[i];
    const bool same = ca.ok && cb.ok && ca.dump == cb.dump;
    if (!same) ++mismatches;
    std::printf("  %s seed %-3llu %s\n", label,
                static_cast<unsigned long long>(ca.seed),
                same ? "ok (byte-identical)"
                     : !ca.ok || !cb.ok ? "FAILED RUN" : "DUMP MISMATCH");
  }
  std::printf("  %s: %zu cases, %.2f s + %.2f s wall (%zu threads)\n", label,
              a.cases.size(), a.wall_sec, b.wall_sec, a.threads);
  return mismatches;
}

/// The CI determinism grid: every seed of the overlap scenario run twice
/// (threads-many shards each pass), each pair's counter dumps byte-compared.
/// This is the promotion of the PR 6 hand-rolled 3-seed shell loop to a
/// 10-seed grid the sharded runner can afford inside the CI budget.  A
/// second, smaller cell repeats the check with the storage axis engaged so
/// capture stalls and chain reads are covered by the same bit-for-bit
/// guarantee.
int run_determinism_grid(std::size_t threads) {
  batch::RunnerOptions opts;
  opts.threads = threads;
  opts.keep_dumps = true;
  const batch::Runner runner(opts);

  batch::SweepSpec sweep;
  sweep.topologies = {batch::scale_topology(10, 100, minutes(30))};
  sweep.campaigns = {batch::overlap_campaign()};
  for (std::uint64_t s = 1; s <= 10; ++s) sweep.seeds.push_back(s);
  std::printf("determinism grid: %zu runs x 2 passes (overlap 10x100)\n",
              sweep.runs());
  std::size_t mismatches = compare_two_passes(runner, sweep, "plain  ");

  // The storage-charged cell: striped-remote backend with incremental
  // capture, 3 seeds.  Capture stalls reshape the event schedule, so this
  // exercises a decision stream the plain cell never sees.
  batch::SweepSpec charged;
  charged.topologies = sweep.topologies;
  charged.campaigns = sweep.campaigns;
  charged.seeds = {1, 2, 3};
  config::StorageSpec striped;
  striped.kind = config::StorageSpec::Kind::kStripedRemote;
  charged.storage = {
      batch::storage_point("striped", striped, minutes(5), 16ull << 20)};
  std::printf("storage-charged cell: %zu runs x 2 passes (striped-remote)\n",
              charged.runs());
  mismatches += compare_two_passes(runner, charged, "striped");

  std::printf("%s\n", mismatches == 0 ? "PASS" : "FAIL");
  return mismatches == 0 ? 0 : 1;
}

/// The optimal-interval grid: checkpoint interval x storage bandwidth for
/// both backends, reference fault campaign.  Each cell reports checkpoint
/// bytes written and the two sides of the classic tradeoff — time lost
/// writing checkpoints (capture stalls + recovery chain reads) vs. work
/// re-executed after rollbacks — and the per-(backend, bandwidth) row with
/// the lowest total is flagged as the optimal interval.
///
/// Runs the independent-checkpointing baseline, not HC3I: under HC3I the
/// §3.2 forcing rule ties CLC frequency to inter-cluster traffic, so with
/// the ring workload the timer barely moves the checkpoint rate and there
/// is no interval to optimise (see docs/scaling.md).  The baseline
/// checkpoints purely on the timer, which is the regime the classic
/// interval analysis assumes.
int run_storage_grid(std::size_t threads) {
  struct BwPoint { const char* tag; double bytes_per_sec; };
  struct IvPoint { const char* tag; SimTime period; };
  static const BwPoint kBandwidths[] = {{"50M", 50e6}, {"200M", 200e6}};
  static const IvPoint kIntervals[] = {
      {"2m", minutes(2)}, {"5m", minutes(5)}, {"10m", minutes(10)}};
  static const std::pair<config::StorageSpec::Kind, const char*> kKinds[] = {
      {config::StorageSpec::Kind::kLocalDisk, "local-disk"},
      {config::StorageSpec::Kind::kStripedRemote, "striped-remote"}};
  constexpr std::uint64_t kStateBytes = 64ull << 20;  // per node

  batch::SweepSpec sweep;
  sweep.protocol = driver::ProtocolKind::kIndependent;
  sweep.topologies = {batch::scale_topology(4, 25, minutes(60))};
  sweep.campaigns = {batch::reference_campaign()};
  sweep.seeds = {1, 2};
  for (const auto& [kind, ktag] : kKinds) {
    for (const BwPoint& bw : kBandwidths) {
      for (const IvPoint& iv : kIntervals) {
        config::StorageSpec st;
        st.kind = kind;
        st.write_bytes_per_sec = bw.bytes_per_sec;
        st.read_bytes_per_sec = bw.bytes_per_sec;
        sweep.storage.push_back(batch::storage_point(
            std::string(ktag) + "/" + bw.tag + "/" + iv.tag, st, iv.period,
            kStateBytes));
      }
    }
  }

  batch::RunnerOptions opts;
  opts.threads = threads;
  const batch::Runner runner(opts);
  std::printf("storage grid: %zu runs (4x25 faulty, independent protocol, "
              "64 MiB state/node)\n",
              sweep.runs());
  const batch::BatchReport report = runner.run(sweep);
  if (report.failures() > 0) {
    std::fputs(report.render_table().c_str(), stdout);
    return 1;
  }

  // Aggregate per storage point (seeds summed), keyed by the point label.
  struct Cell {
    std::uint64_t ckpt_bytes{0};
    double stall_s{0.0}, read_s{0.0}, lost_work_s{0.0};
    double total_s() const { return stall_s + read_s + lost_work_s; }
  };
  std::vector<std::pair<std::string, Cell>> cells;
  for (const batch::CaseResult& c : report.cases) {
    Cell* cell = nullptr;
    for (auto& [name, v] : cells) {
      if (name == c.storage) cell = &v;
    }
    if (!cell) {
      cells.emplace_back(c.storage, Cell{});
      cell = &cells.back().second;
    }
    cell->ckpt_bytes += c.ckpt_bytes;
    cell->stall_s += static_cast<double>(c.ckpt_stall_us) * 1e-6;
    cell->read_s += static_cast<double>(c.recovery_read_us) * 1e-6;
    cell->lost_work_s += c.lost_work_s;
  }
  const auto find_cell = [&cells](const std::string& name) -> const Cell& {
    const Cell* found = nullptr;
    for (const auto& [n, v] : cells) {
      if (n == name) found = &v;
    }
    HC3I_CHECK(found != nullptr, "storage grid cell missing from report");
    return *found;
  };

  std::printf("\n%-15s %-7s %-9s %10s %9s %8s %13s %9s\n", "backend",
              "bw", "interval", "ckpt GiB", "stall s", "read s",
              "lost work s", "total s");
  for (const auto& [kind, ktag] : kKinds) {
    for (const BwPoint& bw : kBandwidths) {
      // The optimal interval for this (backend, bandwidth) row group.
      double best = -1.0;
      for (const IvPoint& iv : kIntervals) {
        const Cell& cell = find_cell(std::string(ktag) + "/" + bw.tag + "/" +
                                     iv.tag);
        if (best < 0 || cell.total_s() < best) best = cell.total_s();
      }
      for (const IvPoint& iv : kIntervals) {
        const Cell& cell = find_cell(std::string(ktag) + "/" + bw.tag + "/" +
                                     iv.tag);
        std::printf("%-15s %-7s %-9s %10.2f %9.1f %8.1f %13.1f %9.1f%s\n",
                    ktag, bw.tag, iv.tag,
                    static_cast<double>(cell.ckpt_bytes) / (1ull << 30),
                    cell.stall_s, cell.read_s, cell.lost_work_s,
                    cell.total_s(),
                    cell.total_s() == best ? "  <- optimal" : "");
      }
    }
  }
  std::printf("\n%zu runs in %.2f s (%zu threads)\n", report.cases.size(),
              report.wall_sec, report.threads);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  if (const std::string unknown = flags.unknown_flag(
          {"clusters", "nodes", "minutes", "campaigns", "seeds", "threads",
           "json", "config", "grid", "protocol", "obs-dir",
           "metrics-interval"});
      !unknown.empty()) {
    std::fprintf(stderr, "%s\n", unknown.c_str());
    return 2;
  }
  const auto threads =
      static_cast<std::size_t>(flags.get_int("threads", 0));

  const std::string grid = flags.get("grid", "");
  if (!grid.empty()) {
    if (grid == "determinism") return run_determinism_grid(threads);
    if (grid == "storage") return run_storage_grid(threads);
    std::fprintf(stderr, "unknown --grid=%s (known: determinism storage)\n",
                 grid.c_str());
    return 2;
  }

  batch::SweepSpec sweep;
  const std::string config_path = flags.get("config", "");
  if (!config_path.empty()) {
    try {
      sweep = batch::parse_sweep(config::read_file(config_path), config_path);
    } catch (const config::ParseError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
  } else {
    const auto nodes =
        static_cast<std::uint32_t>(flags.get_int("nodes", 100));
    const SimTime total = minutes(flags.get_int("minutes", 10));
    for (const std::string& tok :
         batch::split_list(flags.get("clusters", "2,5,10"))) {
      const auto v = parse_uint(tok);
      if (!v || *v < 1) {
        std::fprintf(stderr, "--clusters wants counts >= 1, got '%s'\n",
                     tok.c_str());
        return 2;
      }
      sweep.topologies.push_back(
          batch::scale_topology(static_cast<std::size_t>(*v), nodes, total));
    }
    try {
      for (const std::string& tok :
           batch::split_list(flags.get("campaigns", "none"))) {
        sweep.campaigns.push_back(
            batch::parse_campaign_token(tok, "--campaigns"));
      }
      sweep.seeds = batch::parse_seed_list(flags.get("seeds", "1..3"),
                                           "--seeds");
    } catch (const config::ParseError& e) {
      std::fprintf(stderr, "%s\n", e.what());
      return 2;
    }
    const std::string proto = flags.get("protocol", "hc3i");
    const auto protocol = driver::parse_protocol(proto);
    if (!protocol) {
      std::fprintf(stderr, "unknown --protocol=%s\n", proto.c_str());
      return 2;
    }
    sweep.protocol = *protocol;
  }

  batch::RunnerOptions opts;
  opts.threads = threads;
  opts.obs_dir = flags.get("obs-dir", "");
  if (!opts.obs_dir.empty()) {
    const std::string interval_text = flags.get("metrics-interval", "30s");
    const auto parsed = parse_duration(interval_text);
    if (!parsed.has_value() || parsed->is_infinite()) {
      std::fprintf(stderr, "bad --metrics-interval: %s\n",
                   interval_text.c_str());
      return 2;
    }
    opts.obs_metrics_interval = *parsed;
  }
  const batch::Runner runner(opts);
  batch::BatchReport report;
  try {
    report = runner.run(sweep);
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "invalid sweep: %s\n", e.what());
    return 2;
  }

  if (flags.get_bool("json", false)) {
    std::fputs(report.to_json().c_str(), stdout);
  } else {
    std::fputs(report.render_table().c_str(), stdout);
  }
  return report.failures() == 0 ? 0 : 1;
}
