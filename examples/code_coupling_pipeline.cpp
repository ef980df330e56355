// Code-coupling pipeline — the paper's motivating application (Fig. 1):
// "Simulation -> Treatment -> Display" stages pinned to three clusters,
// with pipelined inter-cluster communication.  Runs HC3I and prints what
// the communication-induced layer cost on top of the timer CLCs.
//
//   ./code_coupling_pipeline [--hours=10] [--seed=1] [--clc-min=30]
//                            [--transitive]
//
// Also demonstrates the configuration-file layer: the exact topology /
// application / timers files for this scenario are printed with --dump.

#include <cstdio>

#include "config/writer.hpp"
#include "driver/run.hpp"
#include "util/flags.hpp"

using namespace hc3i;

namespace {

config::RunSpec pipeline_spec(std::int64_t run_hours, std::int64_t clc_min) {
  config::RunSpec spec;
  // Three 32-node clusters: simulation, treatment, display.
  config::LinkSpec san{microseconds(10), 80e6 / 8};
  config::LinkSpec wan{microseconds(150), 100e6 / 8};
  spec.topology.clusters.assign(3, config::ClusterSpec{32, san});
  spec.topology.inter.assign(3, std::vector<config::LinkSpec>(3));
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 3; ++j) {
      if (i != j) spec.topology.inter[i][j] = wan;
    }
  }
  spec.application.total_time = hours(run_hours);
  spec.application.state_bytes = 8ull * 1024 * 1024;
  spec.application.clusters.resize(3);
  // The simulation stage computes hard and streams results downstream;
  // treatment relays; display only consumes.
  spec.application.clusters[0] = {minutes(2), 64 * 1024, {0.92, 0.08, 0.0}};
  spec.application.clusters[1] = {minutes(3), 32 * 1024, {0.0, 0.90, 0.10}};
  spec.application.clusters[2] = {minutes(4), 16 * 1024, {0.0, 0.0, 1.0}};
  spec.timers.clusters.assign(3, config::ClusterTimerSpec{minutes(clc_min)});
  spec.timers.gc_period = hours(2);
  return spec;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  if (const std::string unknown = flags.unknown_flag(
          {"hours", "clc-min", "dump", "seed", "transitive"});
      !unknown.empty()) {
    std::fprintf(stderr, "%s\n", unknown.c_str());
    return 2;
  }
  const config::RunSpec spec =
      pipeline_spec(flags.get_int("hours", 10), flags.get_int("clc-min", 30));

  if (flags.get_bool("dump", false)) {
    std::printf("# --- topology file ---\n%s\n# --- application file ---\n%s\n"
                "# --- timers file ---\n%s\n",
                config::write_topology(spec.topology).c_str(),
                config::write_application(spec.application).c_str(),
                config::write_timers(spec.timers).c_str());
    return 0;
  }

  driver::RunOptions opts;
  opts.spec = spec;
  opts.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  opts.hc3i.transitive_ddv = flags.get_bool("transitive", false);
  const auto result = driver::run_simulation(opts);

  std::printf("Code-coupling pipeline (simulation -> treatment -> display)\n");
  std::printf("  dependency tracking: %s\n\n",
              opts.hc3i.transitive_ddv ? "full DDV (transitive, paper §7)"
                                       : "SN piggyback (paper default)");
  const char* stage[] = {"simulation", "treatment", "display"};
  for (std::uint32_t c = 0; c < 3; ++c) {
    const ClusterId cid{c};
    std::printf("  %-10s: %3llu CLCs (%llu forced, %llu unforced), "
                "%llu msgs received from upstream\n",
                stage[c],
                static_cast<unsigned long long>(result.clc_total(cid)),
                static_cast<unsigned long long>(result.clc_forced(cid)),
                static_cast<unsigned long long>(result.clc_unforced(cid)),
                static_cast<unsigned long long>(
                    c == 0 ? 0
                           : result.app_messages(ClusterId{c - 1}, cid)));
  }
  std::printf("\n  GC rounds: %llu; retained CLCs at end: %llu / %llu / %llu\n",
              static_cast<unsigned long long>(result.counter("gc.rounds")),
              static_cast<unsigned long long>(result.counter("store.final_clcs.c0")),
              static_cast<unsigned long long>(result.counter("store.final_clcs.c1")),
              static_cast<unsigned long long>(result.counter("store.final_clcs.c2")));
  std::printf("  consistency violations: %zu\n", result.violations.size());
  return 0;
}
