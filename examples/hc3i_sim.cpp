// hc3i_sim — the paper's simulator as a standalone tool (§5.1): "The user
// has to provide three files: a topology file, an application file and a
// timer file."
//
//   ./hc3i_sim <topology.conf> <application.conf> <timers.conf>
//              [--seed=1]
//              [--protocol=hc3i|independent|coordinated-global|
//                          pessimistic-log|hierarchical-coordinated]
//              [--campaign=<campaign.conf>]
//              [--trace=stats|protocol] [--dump-counters]
//              [--trace-out=<trace.json>] [--metrics-out=<metrics.tsv>]
//              [--metrics-interval=<dur>]
//
// --campaign loads a declarative fault plan (see config/parser.hpp for the
// file format: scripted kills, MTBF streams, bursts, repeat offenders and
// phase triggers); the run report then includes the per-incident recovery
// telemetry table.  A plan whose same-cluster kill queue cannot drain before
// the application's total_time is rejected (exit 2, injector named).
//
// --trace-out writes the structured protocol trace as Chrome/Perfetto
// trace_event JSON (open in https://ui.perfetto.dev); --metrics-out writes
// the periodic counter samples as TSV, sampled every --metrics-interval of
// simulated time (positive; default 30s when --metrics-out is given).  Both
// outputs are byte-reproducible for a fixed seed; see docs/observability.md.
//
// Prints the end-of-run statistics block (the simulator's "lowest output",
// per the paper), or with --dump-counters the sorted "name = value" counter
// dump the golden files hold; --trace=protocol also prints every recorded
// protocol event (CLC rounds and commits, failures, rollbacks, GC) as
// time-stamped text on stderr.  Try it on the committed reference files:
//
//   ./hc3i_sim configs/paper/topology.conf configs/paper/application.conf \
//              configs/paper/timers.conf --trace=protocol
//
// configs/scale holds the 10x100 scale-out scenario (docs/scaling.md): its
// three files, a striped-remote storage variant of the topology, and the
// reference (faulty.campaign) and overlapping-burst (overlap.campaign) fault
// plans; the scale goldens bench/golden_counters_scale*.txt are its
// --dump-counters output.  The other committed scenarios:
//
//   configs/small     2x8 for 1 h; --campaign=configs/small/quickstart.campaign
//                     kills node 4 at 12 min (the five-minute tour)
//   configs/recovery  3x4 for 1 h; --campaign=configs/recovery/kill.campaign
//                     --seed=7 --trace=protocol shows cluster 1's rollback
//                     alerts forcing clusters 0 and 2 back (paper §4)
//   configs/pipeline  the paper's Fig. 1 code-coupling pipeline: simulation
//                     -> treatment -> display on three 32-node clusters

#include <cstdio>
#include <string>

#include "config/parser.hpp"
#include "driver/report.hpp"
#include "driver/run.hpp"
#include "fault/campaign.hpp"
#include "obs/export.hpp"
#include "util/flags.hpp"
#include "util/quantity.hpp"

using namespace hc3i;

namespace {

/// False, with the one-line message, when `path` is set but cannot be
/// opened for writing.  Opens without truncating: the run writes the file.
bool writable(const std::string& path) {
  if (path.empty()) return true;
  std::FILE* f = std::fopen(path.c_str(), "ab");
  if (f != nullptr && std::fclose(f) == 0) return true;
  std::fprintf(stderr, "hc3i_sim: cannot write %s\n", path.c_str());
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags = Flags::parse(argc, argv);
    if (const std::string unknown = flags.unknown_flag(
            {"seed", "protocol", "campaign", "trace", "dump-counters",
             "trace-out", "metrics-out", "metrics-interval"});
        !unknown.empty()) {
      std::fprintf(stderr, "hc3i_sim: %s\n", unknown.c_str());
      return 2;
    }
    if (flags.positional().size() != 3) {
      std::fprintf(stderr,
                   "usage: hc3i_sim <topology.conf> <application.conf> "
                   "<timers.conf> [--seed=N] [--protocol=...] "
                   "[--campaign=<file>] [--trace=...] [--dump-counters] "
                   "[--trace-out=<f>] [--metrics-out=<f>] "
                   "[--metrics-interval=<dur>]\n");
      return 2;
    }
    const std::string trace = flags.get("trace", "stats");
    if (trace != "stats" && trace != "protocol") {
      std::fprintf(stderr, "hc3i_sim: unknown --trace: %s (stats|protocol)\n",
                   trace.c_str());
      return 2;
    }
    const bool protocol_text = trace == "protocol";
    const bool dump_counters = flags.get_bool("dump-counters", false);

    driver::RunOptions opts;
    opts.spec = config::load_run_spec(flags.positional()[0],
                                      flags.positional()[1],
                                      flags.positional()[2]);
    opts.seed =
        static_cast<std::uint64_t>(flags.get_int("seed", 1, 0, INT64_MAX));
    const std::string protocol_name = flags.get("protocol", "hc3i");
    const auto protocol = driver::parse_protocol(protocol_name);
    if (!protocol.has_value()) {
      std::fprintf(stderr, "hc3i_sim: unknown --protocol: %s\n",
                   protocol_name.c_str());
      return 2;
    }
    opts.protocol = *protocol;
    const std::string campaign_path = flags.get("campaign", "");
    if (!campaign_path.empty()) {
      opts.campaign = config::parse_campaign(
          config::read_file(campaign_path), opts.spec.topology, campaign_path);
      // A burst denser than its cluster's recovery rate queues kills that
      // cannot fire before the horizon: reject the file, naming the
      // injector.
      fault::check_queue_bounds(opts.campaign, opts.spec,
                                opts.spec.application.total_time);
    }
    opts.validate = false;  // report violations instead of throwing

    const std::string trace_out = flags.get("trace-out", "");
    const std::string metrics_out = flags.get("metrics-out", "");
    opts.trace = protocol_text || !trace_out.empty();
    const std::string interval_text = flags.get("metrics-interval", "");
    if (!interval_text.empty()) {
      // A zero interval would switch the sampler off and leave
      // --metrics-out unwritten.
      const auto parsed = parse_duration(interval_text);
      if (!parsed.has_value() || *parsed == SimTime::zero() ||
          parsed->is_infinite()) {
        std::fprintf(stderr,
                     "hc3i_sim: --metrics-interval wants a positive finite "
                     "duration, got '%s'\n",
                     interval_text.c_str());
        return 2;
      }
      opts.metrics_interval = *parsed;
    } else if (!metrics_out.empty()) {
      opts.metrics_interval = seconds(30);
    }

    // Open both outputs before the run, so an unwritable path costs no
    // simulation.
    if (!writable(trace_out) || !writable(metrics_out)) return 2;

    const driver::RunResult result = driver::run_simulation(opts);
    if (result.obs != nullptr) {
      if (protocol_text) {
        std::fputs(obs::trace_text(*result.obs).c_str(), stderr);
      }
      // Not HC3I_CHECKs: a build with checks off would skip the writes.
      if (!trace_out.empty() &&
          !obs::write_text_file(trace_out, obs::trace_json(*result.obs))) {
        std::fprintf(stderr, "hc3i_sim: cannot write %s\n", trace_out.c_str());
        return 2;
      }
      if (!metrics_out.empty() &&
          !obs::write_text_file(metrics_out, obs::metrics_tsv(*result.obs))) {
        std::fprintf(stderr, "hc3i_sim: cannot write %s\n",
                     metrics_out.c_str());
        return 2;
      }
    }
    if (dump_counters) {
      std::fputs(result.registry.dump().c_str(), stdout);
    } else {
      std::printf("%s", driver::render_report(
                            result, opts.spec.topology.cluster_count())
                            .c_str());
    }
    return result.violations.empty() ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hc3i_sim: %s\n", e.what());
    return 2;
  }
}
