// Figure 9 reproduction: "Communication Patterns" — both timers at 30 min,
// sweeping the number of messages from cluster 1 to cluster 0 (x = 10..110,
// paper §5.3).
//
// Expected shape: "The number of forced CLCs increases fast with the number
// of messages from cluster 1 to cluster 0" — cluster 0's forced count (and
// with it both totals) climbs steeply, the protocol's worst case.

#include "bench_common.hpp"

using namespace hc3i;

int main(int argc, char** argv) {
  const Flags flags = bench::parse_flags(argc, argv, {"seeds"});
  const int seeds = static_cast<int>(flags.get_int("seeds", 3));

  bench::print_header(
      "Figure 9", "Increasing Communication from Cluster 1 to Cluster 0",
      "forced CLCs in cluster 0 grow fast with the 1->0 message count "
      "(totals ~20 at x=10 rising toward ~60-70 at x=110)");

  stats::Series total0{"Cluster 0 Total", {}, {}};
  stats::Series forced0{"Cluster 0 Forced", {}, {}};
  stats::Series total1{"Cluster 1 Total", {}, {}};
  stats::Series forced1{"Cluster 1 Forced", {}, {}};
  for (const int messages : {10, 30, 50, 70, 90, 110}) {
    const auto avg = bench::average_clcs(minutes(30), minutes(30),
                                         static_cast<double>(messages), seeds);
    total0.add(messages, avg.forced0 + avg.unforced0);
    forced0.add(messages, avg.forced0);
    total1.add(messages, avg.forced1 + avg.unforced1);
    forced1.add(messages, avg.forced1);
  }
  std::printf("%s\n",
              stats::render_series("Number of Messages from Cluster 1 to Cluster 0",
                                   {total0, forced0, total1, forced1})
                  .c_str());
  return 0;
}
