// Table 3 reproduction: garbage collection on three clusters (paper §5.4).
// Cluster 2 clones cluster 1; roughly 200 messages leave and arrive in each
// cluster over 10 h; GC every 2 hours.
//
//   paper: before 30-80 stored CLCs per cluster, after always 2.

#include "bench_common.hpp"

using namespace hc3i;

int main(int argc, char** argv) {
  const Flags flags = bench::parse_flags(argc, argv, {"seed"});
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  bench::print_header(
      "Table 3", "Number of stored CLCs around each GC (3 clusters)",
      "before 30-80 per cluster, after always 2");

  driver::RunOptions opts;
  opts.spec.topology = config::paper_three_cluster_topology();
  opts.spec.application = config::paper_three_cluster_application();
  opts.spec.timers = config::paper_three_cluster_timers(hours(2));
  opts.seed = seed;
  const auto result = driver::run_simulation(opts);

  stats::Table t({"GC #", "C0 Before", "C0 After", "C1 Before", "C1 After",
                  "C2 Before", "C2 After"});
  // Group the per-cluster events into GC rounds of three.
  std::vector<core::GcEvent> buffer;
  int round = 0;
  for (const auto& ev : result.gc_events) {
    buffer.push_back(ev);
    if (buffer.size() == 3) {
      core::GcEvent by_cluster[3];
      for (const auto& e : buffer) by_cluster[e.cluster.v] = e;
      t.row().cell(std::int64_t{++round});
      for (int c = 0; c < 3; ++c) {
        t.cell(static_cast<std::uint64_t>(by_cluster[c].clcs_before))
            .cell(static_cast<std::uint64_t>(by_cluster[c].clcs_after));
      }
      buffer.clear();
    }
  }
  std::printf("%s\n", t.to_ascii().c_str());
  std::printf("Paper Table 3: before 30/48/54/38 (c0), 50/80/78/64 (c1 and "
              "c2), after always 2.\n");
  return 0;
}
