// Figure 8 reproduction: "Increasing the Number of CLCs in Cluster 1" —
// cluster 0's timer fixed at 30 min, cluster 1's timer swept 15..60 min
// (paper §5.2).
//
// Expected shape: cluster 0's total stays flat (~20-25) even when cluster 1
// checkpoints every 15 minutes, because only ~11 messages flow 1 -> 0
// ("This is thanks to the low number of messages from cluster 1 to
// cluster 0"); cluster 1's forced count stays roughly constant while its
// total falls as its own timer slows.

#include "bench_common.hpp"

using namespace hc3i;

int main(int argc, char** argv) {
  const Flags flags = bench::parse_flags(argc, argv, {"seeds"});
  const int seeds = static_cast<int>(flags.get_int("seeds", 3));

  bench::print_header(
      "Figure 8", "Impact of the Number of CLCs in Cluster 1",
      "cluster 0 total flat ~20-25; cluster 1 forced ~25-30 flat; cluster 1 "
      "total falls with its timer (x = 15..60 min, timer0 = 30 min)");

  stats::Series total0{"Cluster 0 Total", {}, {}};
  stats::Series total1{"Cluster 1 Total", {}, {}};
  stats::Series forced1{"Cluster 1 Forced", {}, {}};
  for (const int delay_min : {15, 20, 25, 30, 40, 50, 60}) {
    const auto avg =
        bench::average_clcs(minutes(30), minutes(delay_min), 11.0, seeds);
    total0.add(delay_min, avg.forced0 + avg.unforced0);
    total1.add(delay_min, avg.forced1 + avg.unforced1);
    forced1.add(delay_min, avg.forced1);
  }
  std::printf("%s\n",
              stats::render_series("Delay Between CLCs (timer) in Cluster 1 [min]",
                                   {total0, total1, forced1})
                  .c_str());
  return 0;
}
