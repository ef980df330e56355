// Figure 7 reproduction: number of CLCs really committed in *cluster 1*
// against the delay between unforced CLCs in *cluster 0*, with cluster 1's
// own timer infinite (paper §5.2).
//
// Expected shape: cluster 1 stores no unforced CLCs at all; its forced
// count is proportional to the number of CLCs cluster 0 stores (numerous
// messages travel 0 -> 1, each fresh cluster-0 SN forcing once), falling
// from ~90 to ~10 across the sweep.

#include "bench_common.hpp"

using namespace hc3i;

int main(int argc, char** argv) {
  const Flags flags = bench::parse_flags(argc, argv, {"seeds"});
  const int seeds = static_cast<int>(flags.get_int("seeds", 3));

  bench::print_header(
      "Figure 7", "Interval Between CLCs Influence in Cluster 1",
      "zero unforced; forced proportional to cluster 0's CLC count "
      "(~90 at 10 min falling to ~10 at 120 min)");

  stats::Series forced{"Forced CLCs", {}, {}};
  stats::Series unforced{"Unforced CLCs", {}, {}};
  for (const int delay_min : {5, 10, 20, 30, 45, 60, 90, 120}) {
    const auto avg = bench::average_clcs(minutes(delay_min),
                                         SimTime::infinity(), 11.0, seeds);
    forced.add(delay_min, avg.forced1);
    unforced.add(delay_min, avg.unforced1);
  }
  std::printf("%s\n",
              stats::render_series("Delay Between CLCs (timer) in Cluster 0 [min]",
                                   {forced, unforced})
                  .c_str());
  return 0;
}
