// Failure-recovery walkthrough: reproduces the paper's §4 sample execution
// narrative on a live simulation — inter-cluster messages forcing CLCs,
// then a fault, the rollback-alert cascade and the logged-message replay —
// with the protocol-level text trace on stderr so every step is visible.
// The default seed 7 shows the cascade: cluster 1's rollback alerts force
// clusters 0 and 2 back as well.
//
//   ./failure_recovery [--seed=7] [--quiet]

#include <cstdio>

#include "config/presets.hpp"
#include "driver/run.hpp"
#include "obs/export.hpp"
#include "util/flags.hpp"

using namespace hc3i;

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  if (const std::string unknown = flags.unknown_flag({"seed", "quiet"});
      !unknown.empty()) {
    std::fprintf(stderr, "%s\n", unknown.c_str());
    return 2;
  }

  driver::RunOptions opts;
  // Three small clusters with a modest inter-cluster exchange pattern.
  opts.spec = config::small_test_spec(3, 4);
  opts.spec.application.total_time = hours(1);
  for (auto& t : opts.spec.timers.clusters) t.clc_period = minutes(10);
  opts.seed = static_cast<std::uint64_t>(flags.get_int("seed", 7));
  opts.trace = !flags.get_bool("quiet", false);
  // Fault in cluster 1 mid-run — the paper's snapshot 1 -> 2 transition.
  opts.scripted_failures.push_back({minutes(35), NodeId{5}});

  std::printf("Simulating 1 h of a 3-cluster code-coupling run; node 5\n"
              "(cluster 1) fails at t=35min. Protocol trace follows.\n\n");
  const auto result = driver::run_simulation(opts);
  if (result.obs != nullptr) {
    std::fputs(obs::trace_text(*result.obs).c_str(), stderr);
  }

  std::printf("\n--- outcome ---------------------------------------------\n");
  std::printf("failures injected        : %llu\n",
              static_cast<unsigned long long>(result.counter("fault.injected")));
  std::printf("cluster rollbacks        : %llu  (faulty cluster + cascades)\n",
              static_cast<unsigned long long>(result.counter("rollback.count")));
  std::printf("rollback alerts received : %llu\n",
              static_cast<unsigned long long>(result.counter("rollback.alerts")));
  std::printf("logged messages re-sent  : %llu\n",
              static_cast<unsigned long long>(result.counter("log.resent_msgs")));
  std::printf("stale messages discarded : %llu\n",
              static_cast<unsigned long long>(result.counter("cic.stale_dropped")));
  std::printf("work lost to the fault   : %.1f node-seconds\n",
              result.registry.summary("rollback.lost_work_s").sum());
  std::printf("consistency violations   : %zu (the ledger audited %llu\n"
              "                           send/delivery events end-to-end)\n",
              result.violations.size(),
              static_cast<unsigned long long>(result.counter("ledger.total_events")));
  return 0;
}
