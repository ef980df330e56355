// Quickstart: simulate a small cluster federation running a code-coupling
// application under the HC3I checkpointing protocol, inject a node failure
// mid-run, and print what the protocol did.
//
//   ./quickstart [--clusters=2] [--nodes=8] [--seed=1] [--fail-at=12min]
//
// This is the five-minute tour of the library: build a RunSpec (or load the
// paper's three configuration files with config::load_run_spec), pick a
// protocol, call driver::run_simulation, read the statistics.

#include <cstdio>

#include "config/presets.hpp"
#include "driver/run.hpp"
#include "util/flags.hpp"
#include "util/quantity.hpp"

using namespace hc3i;

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  if (const std::string unknown =
          flags.unknown_flag({"clusters", "nodes", "seed", "fail-at"});
      !unknown.empty()) {
    std::fprintf(stderr, "%s\n", unknown.c_str());
    return 2;
  }
  const auto clusters = static_cast<std::size_t>(flags.get_int("clusters", 2));
  const auto nodes = static_cast<std::uint32_t>(flags.get_int("nodes", 8));

  driver::RunOptions opts;
  opts.spec = config::small_test_spec(clusters, nodes);
  opts.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  opts.protocol = driver::ProtocolKind::kHc3i;

  // Inject one fail-stop node failure mid-run (paper §2.1 failure model).
  const auto fail_at = parse_duration(flags.get("fail-at", "12min"));
  if (fail_at && !fail_at->is_infinite()) {
    opts.scripted_failures.push_back(
        driver::ScriptedFailure{*fail_at, NodeId{nodes / 2}});
  }

  const driver::RunResult result = driver::run_simulation(opts);

  std::printf("HC3I quickstart — %zu clusters x %u nodes, %s of application\n",
              clusters, nodes,
              to_string(opts.spec.application.total_time).c_str());
  std::printf("  simulated events      : %llu\n",
              static_cast<unsigned long long>(result.events_executed));
  std::printf("  app messages delivered: %llu\n",
              static_cast<unsigned long long>(result.total_received));
  for (std::size_t c = 0; c < clusters; ++c) {
    const ClusterId cid{static_cast<std::uint32_t>(c)};
    std::printf(
        "  cluster %zu: %llu CLCs committed (%llu forced, %llu unforced)\n", c,
        static_cast<unsigned long long>(result.clc_total(cid)),
        static_cast<unsigned long long>(result.clc_forced(cid)),
        static_cast<unsigned long long>(result.clc_unforced(cid)));
  }
  std::printf("  failures injected     : %llu\n",
              static_cast<unsigned long long>(result.counter("fault.injected")));
  std::printf("  cluster rollbacks     : %llu\n",
              static_cast<unsigned long long>(result.counter("rollback.count")));
  std::printf("  logged msgs re-sent   : %llu\n",
              static_cast<unsigned long long>(result.counter("log.resent_msgs")));
  std::printf("  consistency violations: %zu\n", result.violations.size());
  std::printf("\nThe consistency ledger audited every send/delivery across the "
              "rollback:\n  %llu of %llu events were undone and re-executed "
              "consistently.\n",
              static_cast<unsigned long long>(
                  result.counter("ledger.undone_events")),
              static_cast<unsigned long long>(
                  result.counter("ledger.total_events")));
  return 0;
}
