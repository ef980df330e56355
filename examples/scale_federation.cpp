// Scale-out federation scenario: 10 clusters x 100 nodes (configurable),
// with a sweep axis over the cluster count.
//
// The paper's hierarchy exists so the protocol scales past one cluster, but
// its evaluation stops at 2-3 clusters.  This scenario opens the
// large-federation regime: ring-structured traffic over `--clusters`
// clusters of `--nodes` nodes with CLC timers and garbage collection
// enabled, reporting what actually grows with the cluster count — events,
// active census pairs, retained CLCs, GC response bytes (and how much the
// delta-compressed encoding saved).  See docs/scaling.md for the cost model
// each column checks.
//
//   ./scale_federation                         # one 10x100 run
//   ./scale_federation --clusters=6 --nodes=50
//   ./scale_federation --sweep=2,4,6,8,10      # the scaling story table
//   ./scale_federation --dump-counters         # fixed-seed repro dump (CI
//                                              #   diffs it against
//                                              #   bench/golden_counters_scale.txt)
//   ./scale_federation --faulty [--sweep=...]  # same scenario under the fixed
//                                              #   reference fault campaign;
//                                              #   with --dump-counters CI
//                                              #   diffs it
//                                              #   against
//                                              #   bench/golden_counters_scale_faulty.txt
//   ./scale_federation --overlap               # overlapping-burst campaign:
//                                              #   concurrent per-cluster
//                                              #   recoveries; with
//                                              #   --dump-counters CI diffs it
//                                              #   against
//                                              #   bench/golden_counters_scale_overlap.txt
//   ./scale_federation --storage [--overlap]   # charge checkpoint capture and
//                                              #   recovery reads to a
//                                              #   striped-remote store on
//                                              #   every cluster (orthogonal to
//                                              #   the fault mode); with
//                                              #   --overlap --dump-counters CI
//                                              #   diffs it against
//                                              #   bench/golden_counters_scale_storage.txt
//   ./scale_federation --trace-out=t.json --metrics-out=m.tsv
//                                              # structured protocol trace
//                                              #   (Perfetto trace_event JSON)
//                                              #   and periodic counter samples
//                                              #   (--metrics-interval, default
//                                              #   30s); byte-reproducible per
//                                              #   seed — CI byte-compares two
//                                              #   passes.  Sweep rows get a
//                                              #   ".c<N>" path suffix.

#include <cstdio>
#include <string>
#include <vector>

#include "config/presets.hpp"
#include "driver/run.hpp"
#include "fault/campaign.hpp"
#include "obs/export.hpp"
#include "util/check.hpp"
#include "util/flags.hpp"
#include "util/quantity.hpp"
#include "util/walltime.hpp"

using namespace hc3i;

namespace {

using util::now_sec;

/// Parse "2,4,6" into cluster counts; returns false (with *out untouched
/// beyond valid prefixes) on a non-numeric or zero token.
bool parse_sweep(const std::string& s, std::vector<std::size_t>* out) {
  std::size_t pos = 0;
  while (pos < s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok =
        s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) {
      std::size_t value = 0;
      for (const char ch : tok) {
        if (ch < '0' || ch > '9') return false;
        value = value * 10 + static_cast<std::size_t>(ch - '0');
      }
      if (value == 0) return false;
      out->push_back(value);
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return true;
}

/// Which fault plan (if any) rides on the scale scenario.
enum class FaultMode { kNone, kFaulty, kOverlap };

void apply_fault_mode(driver::RunOptions* opts, FaultMode mode,
                      std::size_t clusters, std::uint32_t nodes,
                      SimTime total) {
  switch (mode) {
    case FaultMode::kNone:
      break;
    case FaultMode::kFaulty:
      opts->campaign = fault::reference_scale_campaign(clusters, nodes, total);
      break;
    case FaultMode::kOverlap:
      opts->campaign =
          fault::reference_overlap_campaign(clusters, nodes, total);
      break;
  }
}

/// The storage-charged variant: a striped-remote checkpoint store with the
/// default cost model (5 ms latency, 100 MB/s per stripe, width 4) and
/// incremental dirty-range capture on every cluster.
void apply_storage(config::RunSpec* spec) {
  config::StorageSpec storage;
  storage.kind = config::StorageSpec::Kind::kStripedRemote;
  for (config::ClusterSpec& c : spec->topology.clusters) c.storage = storage;
}

struct RowStats {
  std::uint64_t events;
  double wall_sec;
  std::size_t census_pairs;
  std::uint64_t store_max_clcs;
  std::uint64_t gc_saved_bytes;
};

/// Observability outputs for one run; paths empty = off.
struct ObsOutputs {
  std::string trace_out;
  std::string metrics_out;
  SimTime metrics_interval{SimTime::zero()};
};

/// Per-sweep-row output path: verbatim for a single row, suffixed with the
/// cluster count otherwise so rows never clobber each other.
std::string row_path(const std::string& base, std::size_t clusters,
                     bool multi) {
  return multi ? base + ".c" + std::to_string(clusters) : base;
}

RowStats run_one(std::size_t clusters, std::uint32_t nodes, SimTime total,
                 std::uint64_t seed, FaultMode mode, bool storage,
                 const ObsOutputs& obs_out, bool multi_row) {
  driver::RunOptions opts;
  opts.spec = config::scale_federation_spec(clusters, nodes, total);
  if (storage) apply_storage(&opts.spec);
  apply_fault_mode(&opts, mode, clusters, nodes, total);
  opts.seed = seed;
  opts.trace = !obs_out.trace_out.empty();
  opts.metrics_interval = obs_out.metrics_interval;
  const double t0 = now_sec();
  const driver::RunResult result = driver::run_simulation(opts);
  if (result.obs != nullptr) {
    if (!obs_out.trace_out.empty()) {
      const std::string path = row_path(obs_out.trace_out, clusters, multi_row);
      HC3I_CHECK(obs::write_text_file(path, obs::trace_json(*result.obs)),
                 "cannot write " + path);
    }
    if (!obs_out.metrics_out.empty()) {
      const std::string path =
          row_path(obs_out.metrics_out, clusters, multi_row);
      HC3I_CHECK(obs::write_text_file(path, obs::metrics_tsv(*result.obs)),
                 "cannot write " + path);
    }
  }
  RowStats row{};
  row.events = result.events_executed;
  row.wall_sec = now_sec() - t0;
  for (const std::string& name : result.registry.counter_names()) {
    if (name.rfind("net.app.pair.", 0) == 0) ++row.census_pairs;
    if (name.rfind("store.max_clcs.", 0) == 0) {
      const std::uint64_t v = result.counter(name);
      if (v > row.store_max_clcs) row.store_max_clcs = v;
    }
    if (name.rfind("gc.resp_bytes_saved.", 0) == 0) {
      row.gc_saved_bytes += result.counter(name);
    }
  }
  return row;
}

void dump_counters(std::uint32_t nodes, FaultMode mode, bool storage,
                   std::uint64_t seed) {
  driver::RunOptions opts;
  opts.spec = config::scale_federation_spec(10, nodes, minutes(30));
  if (storage) apply_storage(&opts.spec);
  apply_fault_mode(&opts, mode, 10, nodes, minutes(30));
  opts.seed = seed;
  const driver::RunResult result = driver::run_simulation(opts);
  std::fputs(result.registry.dump().c_str(), stdout);
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  if (const std::string unknown = flags.unknown_flag(
          {"clusters", "nodes", "seed", "minutes", "sweep", "dump-counters",
           "faulty", "overlap", "storage", "trace-out", "metrics-out",
           "metrics-interval"});
      !unknown.empty()) {
    std::fprintf(stderr, "%s\n", unknown.c_str());
    return 2;
  }
  const auto nodes = static_cast<std::uint32_t>(flags.get_int("nodes", 100));
  const bool faulty = flags.get_bool("faulty", false);
  const bool overlap = flags.get_bool("overlap", false);
  if (faulty && overlap) {
    std::fprintf(stderr, "--faulty and --overlap are mutually exclusive\n");
    return 2;
  }
  const FaultMode mode = faulty ? FaultMode::kFaulty
                        : overlap ? FaultMode::kOverlap
                                  : FaultMode::kNone;
  const bool storage = flags.get_bool("storage", false);
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  if (flags.get_bool("dump-counters", false)) {
    dump_counters(nodes, mode, storage, seed);
    return 0;
  }
  const SimTime total = minutes(flags.get_int("minutes", 30));

  ObsOutputs obs_out;
  obs_out.trace_out = flags.get("trace-out", "");
  obs_out.metrics_out = flags.get("metrics-out", "");
  const std::string interval_text = flags.get("metrics-interval", "");
  if (!interval_text.empty()) {
    const auto parsed = parse_duration(interval_text);
    if (!parsed.has_value() || parsed->is_infinite()) {
      std::fprintf(stderr, "bad --metrics-interval: %s\n",
                   interval_text.c_str());
      return 2;
    }
    obs_out.metrics_interval = *parsed;
  } else if (!obs_out.metrics_out.empty()) {
    obs_out.metrics_interval = seconds(30);
  }

  std::vector<std::size_t> sweep;
  if (!parse_sweep(flags.get("sweep", ""), &sweep)) {
    std::fprintf(stderr, "--sweep wants a comma list of cluster counts, "
                         "e.g. --sweep=2,4,6,8,10\n");
    return 2;
  }
  if (sweep.empty()) {
    sweep.push_back(static_cast<std::size_t>(flags.get_int("clusters", 10)));
  }

  std::printf("scale-out federation — %u nodes/cluster, %s simulated, "
              "ring traffic, CLC timer 5min, GC 10min%s%s\n\n",
              nodes, to_string(total).c_str(),
              mode == FaultMode::kFaulty
                  ? ", reference fault campaign"
                  : mode == FaultMode::kOverlap
                        ? ", overlap fault campaign (concurrent recoveries)"
                        : "",
              storage ? ", striped-remote checkpoint store" : "");
  std::printf("%9s %7s %10s %9s %12s %10s %12s %12s\n", "clusters", "nodes",
              "events", "wall_s", "events/s", "pairs", "max_clcs",
              "gc_saved_B");
  for (const std::size_t c : sweep) {
    const RowStats row = run_one(c, nodes, total, seed, mode, storage, obs_out,
                                 sweep.size() > 1);
    std::printf("%9zu %7u %10llu %9.2f %12.0f %10zu %12llu %12llu\n", c,
                c * nodes, static_cast<unsigned long long>(row.events),
                row.wall_sec,
                row.wall_sec > 0 ? row.events / row.wall_sec : 0.0,
                row.census_pairs,
                static_cast<unsigned long long>(row.store_max_clcs),
                static_cast<unsigned long long>(row.gc_saved_bytes));
  }
  std::printf(
      "\ncolumns: pairs = distinct (src,dst) cluster pairs that carried "
      "application traffic\n         (ring workload: ~3 per cluster — the "
      "sparse census footprint);\n         max_clcs = retained-CLC "
      "high-water across clusters (GC keeps it flat);\n         gc_saved_B "
      "= GC response bytes avoided by the delta-compressed encoding.\n");
  return 0;
}
