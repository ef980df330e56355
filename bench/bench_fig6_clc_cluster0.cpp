// Figure 6 reproduction: number of CLCs really committed in cluster 0 as a
// function of the delay between unforced CLCs in cluster 0 (x axis, in
// minutes), with cluster 1's timer set to infinite (paper §5.2).
//
// Expected shape: unforced ~ total_time / delay (minus timer resets),
// falling from ~120 to ~5; forced stays small and roughly constant (~8),
// driven by the ~11 cluster-1 -> cluster-0 messages.

#include "bench_common.hpp"

using namespace hc3i;

int main(int argc, char** argv) {
  const Flags flags = bench::parse_flags(argc, argv, {"seeds"});
  const int seeds = static_cast<int>(flags.get_int("seeds", 3));

  bench::print_header(
      "Figure 6", "Interval Between CLCs Influence in Cluster 0",
      "unforced falls ~120 -> ~5 as the timer grows 5 -> 120 min; "
      "forced stays flat at ~8");

  stats::Series forced{"Forced CLCs", {}, {}};
  stats::Series unforced{"Unforced CLCs", {}, {}};
  for (const int delay_min : {5, 10, 20, 30, 45, 60, 90, 120}) {
    const auto avg = bench::average_clcs(minutes(delay_min),
                                         SimTime::infinity(), 11.0, seeds);
    forced.add(delay_min, avg.forced0);
    unforced.add(delay_min, avg.unforced0);
  }
  std::printf("%s\n",
              stats::render_series("Delay Between CLCs (timer) in Cluster 0 [min]",
                                   {forced, unforced})
                  .c_str());
  return 0;
}
