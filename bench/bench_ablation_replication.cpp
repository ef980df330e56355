// Ablation A5 (paper §7): stable-storage replication degree — "The user
// should be able to choose the degree of replication ... (in order to
// tolerate more than one fault in a cluster)."
//
// Storage per node scales as (1 + degree) local states per retained CLC;
// the replica traffic per CLC scales the same way.

#include "bench_common.hpp"

#include "util/quantity.hpp"

using namespace hc3i;

int main(int argc, char** argv) {
  const Flags flags = bench::parse_flags(argc, argv, {"seed"});
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  bench::print_header(
      "Ablation A5", "Stable-storage replication degree (paper §7)",
      "degree 1 in the paper (one simultaneous in-cluster fault tolerated); "
      "storage and replica traffic scale with 1 + degree");

  stats::Table t({"Degree", "Tolerated in-cluster faults",
                  "Local states/node/CLC", "Storage (c0)",
                  "Intra ctl GB", "Consistent"});
  for (const std::uint32_t degree : {0u, 1u, 2u, 3u}) {
    driver::RunOptions opts;
    opts.spec = config::small_test_spec(2, 10);
    opts.spec.application.total_time = hours(2);
    opts.spec.application.state_bytes = 8ull * 1024 * 1024;
    for (auto& tm : opts.spec.timers.clusters) tm.clc_period = minutes(20);
    opts.hc3i.replication = degree;
    opts.seed = seed;
    opts.scripted_failures.push_back({minutes(70), NodeId{3}});
    const auto r = driver::run_simulation(opts);
    t.row()
        .cell(static_cast<std::uint64_t>(degree))
        .cell(static_cast<std::uint64_t>(degree))
        .cell(static_cast<std::uint64_t>(1 + degree))
        .cell(format_bytes(r.counter("store.max_bytes.c0")))
        .cell(static_cast<double>(r.counter("net.ctl.intra.bytes")) / (1024.0 * 1024 * 1024), 2)
        .cell(r.violations.empty() ? "yes" : "NO");
  }
  std::printf("%s\n", t.to_ascii().c_str());
  std::printf("Note: degree 0 still recovers here because the simulator can\n"
              "read the failed node's part; a real deployment would lose it —\n"
              "degree >= 1 is the minimum for genuine fault tolerance.\n");
  return 0;
}
