// Table 2 reproduction: garbage-collection effectiveness on two clusters
// (paper §5.4).  Workload: the Figure 9 configuration with 103 messages from
// cluster 1 to cluster 0, both timers 30 min, one GC every 2 hours.
//
//   paper: stored CLCs before each GC 10-18, after each GC always 2;
//          without GC, 63 CLCs accumulate per cluster; at most 4 logged
//          messages are held at any time.

#include "bench_common.hpp"

using namespace hc3i;

int main(int argc, char** argv) {
  const Flags flags = bench::parse_flags(argc, argv, {"seed"});
  const std::uint64_t seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));

  bench::print_header(
      "Table 2", "Number of stored CLCs around each GC (2 clusters)",
      "before 10-18 / after always 2; 63 CLCs per cluster without GC; "
      "max 4 logged messages");

  // Reference run *without* GC: how much storage accumulates (paper: 63).
  const auto nogc = bench::run_reference(minutes(30), minutes(30), 103.0,
                                         SimTime::infinity(), seed);
  std::printf("Without GC after 10 h: cluster 0 stores %llu CLCs, cluster 1 "
              "stores %llu (paper: 63 each)\n",
              static_cast<unsigned long long>(nogc.counter("store.final_clcs.c0")),
              static_cast<unsigned long long>(nogc.counter("store.final_clcs.c1")));
  std::printf("Each node therefore holds 2x that many local states "
              "(own + neighbour replica), cf. the paper's 126.\n\n");

  // Run with a GC every 2 hours and print the before/after table.
  const auto gc = bench::run_reference(minutes(30), minutes(30), 103.0,
                                       hours(2), seed);
  stats::Table t({"GC #", "Cluster 0 Before", "Cluster 0 After",
                  "Cluster 1 Before", "Cluster 1 After"});
  // gc_events arrive interleaved per cluster; group them by round.
  std::vector<std::pair<core::GcEvent, core::GcEvent>> rounds;
  core::GcEvent pending{};
  bool have_pending = false;
  for (const auto& ev : gc.gc_events) {
    if (!have_pending) {
      pending = ev;
      have_pending = true;
    } else {
      const auto c0 = pending.cluster.v == 0 ? pending : ev;
      const auto c1 = pending.cluster.v == 0 ? ev : pending;
      rounds.emplace_back(c0, c1);
      have_pending = false;
    }
  }
  int i = 0;
  for (const auto& [c0, c1] : rounds) {
    t.row().cell(std::int64_t{++i})
        .cell(static_cast<std::uint64_t>(c0.clcs_before))
        .cell(static_cast<std::uint64_t>(c0.clcs_after))
        .cell(static_cast<std::uint64_t>(c1.clcs_before))
        .cell(static_cast<std::uint64_t>(c1.clcs_after));
  }
  std::printf("%s\n", t.to_ascii().c_str());
  std::printf("Paper Table 2: before 10/18/15/14 (c0) and 11/18/14/15 (c1), "
              "after always 2.\n\n");
  std::printf("Max unacknowledged logged messages (the paper's metric): "
              "c0=%llu c1=%llu (paper: 4 in both clusters)\n",
              static_cast<unsigned long long>(gc.counter("log.max_unacked.c0")),
              static_cast<unsigned long long>(gc.counter("log.max_unacked.c1")));
  std::printf("Total retained log entries between GCs (high-water): "
              "c0=%llu c1=%llu\n",
              static_cast<unsigned long long>(gc.counter("log.max_entries.c0")),
              static_cast<unsigned long long>(gc.counter("log.max_entries.c1")));
  return 0;
}
