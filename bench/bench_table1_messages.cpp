// Table 1 reproduction: application message census of the reference
// workload (paper §5.2).
//
//   paper:  C0->C0 2920   C1->C1 2497   C0->C1 145   C1->C0 11

#include "bench_common.hpp"

using namespace hc3i;

int main(int argc, char** argv) {
  const Flags flags = bench::parse_flags(argc, argv, {"seeds"});
  const int seeds = static_cast<int>(flags.get_int("seeds", 3));

  bench::print_header("Table 1", "Application messages",
                      "2920 / 2497 intra, 145 / 11 inter over 10 h");

  stats::Summary intra0, intra1, c0c1, c1c0;
  for (int s = 1; s <= seeds; ++s) {
    const auto r = bench::run_reference(minutes(30), minutes(30), 11.0,
                                        SimTime::infinity(),
                                        static_cast<std::uint64_t>(s));
    intra0.add(static_cast<double>(r.app_messages(ClusterId{0}, ClusterId{0})));
    intra1.add(static_cast<double>(r.app_messages(ClusterId{1}, ClusterId{1})));
    c0c1.add(static_cast<double>(r.app_messages(ClusterId{0}, ClusterId{1})));
    c1c0.add(static_cast<double>(r.app_messages(ClusterId{1}, ClusterId{0})));
  }

  stats::Table t({"Sender's Cluster", "Receiver's Cluster", "Paper",
                  "Measured (mean of " + std::to_string(seeds) + " seeds)"});
  t.row().cell("Cluster 0").cell("Cluster 0").cell(std::int64_t{2920})
      .cell(intra0.mean(), 1);
  t.row().cell("Cluster 1").cell("Cluster 1").cell(std::int64_t{2497})
      .cell(intra1.mean(), 1);
  t.row().cell("Cluster 0").cell("Cluster 1").cell(std::int64_t{145})
      .cell(c0c1.mean(), 1);
  t.row().cell("Cluster 1").cell("Cluster 0").cell(std::int64_t{11})
      .cell(c1c0.mean(), 1);
  std::printf("%s\n", t.to_ascii().c_str());
  return 0;
}
