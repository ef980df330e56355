// Ablation A1 (paper §7): transitive DDV piggybacking — "The dependency
// tracking mechanism can be improved by adding some transitivity (by
// sending the whole DDV instead of the SN) in order to take less forced
// checkpoints."
//
// Workload: a three-cluster relay pipeline (C0 -> C1 -> C2 plus direct
// C0 -> C2 traffic), where C2 can learn C0's SN through C1's piggybacked
// DDV and skip forced CLCs on the direct path.

#include "bench_common.hpp"

using namespace hc3i;

namespace {

double forced_total(bool transitive, int seeds) {
  double total = 0;
  for (int s = 1; s <= seeds; ++s) {
    driver::RunOptions opts;
    opts.spec = config::small_test_spec(3, 10);
    opts.spec.application.total_time = hours(6);
    // Pipeline traffic (paper Fig. 1): heavy intra, modest downstream
    // relay, a thin direct edge C0 -> C2.
    opts.spec.application.clusters[0].traffic = {0.90, 0.07, 0.03};
    opts.spec.application.clusters[1].traffic = {0.00, 0.93, 0.07};
    opts.spec.application.clusters[2].traffic = {0.00, 0.00, 1.00};
    for (auto& t : opts.spec.timers.clusters) t.clc_period = minutes(20);
    opts.hc3i.transitive_ddv = transitive;
    opts.seed = static_cast<std::uint64_t>(s);
    const auto r = driver::run_simulation(opts);
    for (std::uint32_t c = 0; c < 3; ++c) {
      total += static_cast<double>(r.clc_forced(ClusterId{c}));
    }
  }
  return total / seeds;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = bench::parse_flags(argc, argv, {"seeds"});
  const int seeds = static_cast<int>(flags.get_int("seeds", 5));

  bench::print_header(
      "Ablation A1", "Transitive DDV piggybacking (paper §7)",
      "fewer forced checkpoints when the whole DDV rides on inter-cluster "
      "messages (no number given — future work in the paper)");

  const double plain = forced_total(false, seeds);
  const double transitive = forced_total(true, seeds);
  stats::Table t({"Dependency tracking", "Forced CLCs (fed-wide mean)",
                  "Relative"});
  t.row().cell("SN only (paper default)").cell(plain, 1).cell(1.0, 2);
  t.row().cell("full DDV (transitive)").cell(transitive, 1)
      .cell(plain > 0 ? transitive / plain : 0.0, 2);
  std::printf("%s\n", t.to_ascii().c_str());
  std::printf("Piggyback cost: %d extra bytes per inter-cluster message "
              "(one SeqNum per cluster).\n",
              static_cast<int>(3 * sizeof(SeqNum)));
  return 0;
}
