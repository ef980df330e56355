// Sharded sweep driver: parameter sweeps as a service.
//
//   ./sweep <grid.sweep> [--threads=N] [--json]
//           [--obs-dir=<dir> [--metrics-interval=30s]]
//
// The one input is a sweep file (batch::parse_sweep): a topology x campaign
// x storage x seed grid, sharded across worker threads, each worker owning
// its full simulation context.  Per-run results are byte-identical to solo
// single-threaded runs of the same (spec, seed) regardless of thread count;
// the aggregated report is in grid order, independent of scheduling.  The
// committed grids are configs/sweep/; docs/scaling.md runs each one, e.g.
//
//   ./sweep configs/sweep/scaling.sweep   # cluster-count scaling table
//   ./sweep configs/sweep/storage.sweep   # interval x storage bandwidth
//
// --json prints one object per case, each with the FNV-1a digest of its
// counter dump: two --json runs of one file at different --threads agree on
// every field but the wall-clock ones (the CI determinism step).
// --obs-dir writes <dir>/case<i>.trace.json (+ .metrics.tsv every positive
// --metrics-interval of simulated time); paths are disjoint per case.
//
// The table sums each (topology, campaign, storage) cell over its seeds:
// events, clcs, faults, rb (cluster rollbacks, cascades included), fanout
// (rollback alerts received federation-wide), replay (logged messages
// re-sent), lost_s (node-seconds of recomputation) and gc_saved_B (GC
// response bytes the delta encoding avoided).  lat_ms is the mean
// injection-to-resume recovery latency; pairs (cluster pairs that carried
// application traffic) and max_clcs (retained-CLC high-water across
// clusters) are maxima.  A storage axis adds ckpt bytes, stall s, read s
// and cost s (stall + read + lost work).
//
// Exit status: 0 all runs clean, 1 any run failed or inconsistent, 2 usage
// error.

#include <cstdio>
#include <exception>
#include <string>
#include <vector>

#include "batch/runner.hpp"
#include "batch/sweep.hpp"
#include "config/parser.hpp"
#include "util/flags.hpp"
#include "util/quantity.hpp"

using namespace hc3i;

int main(int argc, char** argv) {
  std::vector<batch::RunCase> cases;
  batch::RunnerOptions opts;
  bool json = false;
  try {
    const Flags flags = Flags::parse(argc, argv);
    if (const std::string unknown = flags.unknown_flag(
            {"threads", "json", "obs-dir", "metrics-interval"});
        !unknown.empty()) {
      std::fprintf(stderr, "sweep: %s\n", unknown.c_str());
      return 2;
    }
    if (flags.positional().size() != 1) {
      std::fprintf(stderr,
                   "usage: sweep <grid.sweep> [--threads=N] [--json] "
                   "[--obs-dir=<dir>] [--metrics-interval=<dur>]\n");
      return 2;
    }
    const std::string& path = flags.positional()[0];
    cases = batch::expand(batch::parse_sweep(config::read_file(path), path));
    opts.threads =
        static_cast<std::size_t>(flags.get_int("threads", 0, 0, 256));
    json = flags.get_bool("json", false);
    opts.obs_dir = flags.get("obs-dir", "");
    if (!opts.obs_dir.empty()) {
      const std::string interval_text = flags.get("metrics-interval", "30s");
      const auto parsed = parse_duration(interval_text);
      // A zero interval would switch the sampler off: no metrics files.
      if (!parsed.has_value() || *parsed == SimTime::zero() ||
          parsed->is_infinite()) {
        std::fprintf(stderr,
                     "sweep: --metrics-interval wants a positive finite "
                     "duration, got '%s'\n",
                     interval_text.c_str());
        return 2;
      }
      opts.obs_metrics_interval = *parsed;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep: %s\n", e.what());
    return 2;
  }

  const batch::BatchReport report = batch::Runner(opts).run(cases);
  std::fputs(json ? report.to_json().c_str() : report.render_table().c_str(),
             stdout);
  return report.failures() == 0 ? 0 : 1;
}
