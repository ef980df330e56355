// Ablation A2/A3 (DESIGN.md): HC3I against the baselines on the same
// failure-injected workload — checkpoint counts, network overhead, rollback
// scope, rollback depth, lost work.  This quantifies the comparisons the
// paper makes qualitatively in §2.2 and §6.

#include "bench_common.hpp"

using namespace hc3i;

namespace {

struct Row {
  std::string name;
  double clcs{0};
  double wan_ctl_kb{0};
  double nodes_restored{0};
  double lost_work_s{0};
  double undone_events{0};
};

Row measure(driver::ProtocolKind kind, int seeds) {
  Row row;
  row.name = driver::to_string(kind);
  for (int s = 1; s <= seeds; ++s) {
    driver::RunOptions opts;
    // A smaller federation (2 x 20 nodes) keeps the global baselines'
    // 2PC traffic readable; 4 h with a fault every ~45 min.  Traffic uses
    // the paper's code-coupling regime: heavy intra-cluster, a thin
    // inter-cluster trickle (§2.1).
    opts.spec = config::small_test_spec(2, 20);
    opts.spec.application.total_time = hours(4);
    opts.spec.application.state_bytes = 8ull * 1024 * 1024;
    for (auto& c : opts.spec.application.clusters) {
      c.mean_compute = minutes(1);
    }
    opts.spec.application.clusters[0].traffic = {0.97, 0.03};
    opts.spec.application.clusters[1].traffic = {0.03, 0.97};
    for (auto& t : opts.spec.timers.clusters) t.clc_period = minutes(30);
    opts.spec.topology.mtbf = minutes(45);
    opts.protocol = kind;
    opts.seed = static_cast<std::uint64_t>(s);
    opts.auto_failures = true;
    const auto r = driver::run_simulation(opts);
    row.clcs += static_cast<double>(r.clc_total(ClusterId{0}) +
                                    r.clc_total(ClusterId{1}));
    row.wan_ctl_kb +=
        static_cast<double>(r.counter("net.ctl.inter.bytes")) / 1024.0;
    row.nodes_restored += static_cast<double>(r.counter("app.restores"));
    row.lost_work_s += r.registry.summary("rollback.lost_work_s").sum();
    row.undone_events += static_cast<double>(r.counter("ledger.undone_events"));
  }
  row.clcs /= seeds;
  row.wan_ctl_kb /= seeds;
  row.nodes_restored /= seeds;
  row.lost_work_s /= seeds;
  row.undone_events /= seeds;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = bench::parse_flags(argc, argv, {"seeds"});
  const int seeds = static_cast<int>(flags.get_int("seeds", 3));

  bench::print_header(
      "Ablation A2/A3", "Protocol comparison under failures",
      "qualitative in the paper: coordinated-global freezes the federation "
      "and rolls everyone back; independent checkpointing dominoes; "
      "message logging confines rollback to one node at heavy network cost; "
      "HC3I sits between");

  stats::Table t({"Protocol", "Checkpoints", "WAN ctl KB", "Nodes restored",
                  "Lost work [s]", "Undone events"});
  for (const auto kind : {driver::ProtocolKind::kHc3i,
                          driver::ProtocolKind::kIndependent,
                          driver::ProtocolKind::kCoordinatedGlobal,
                          driver::ProtocolKind::kHierarchicalCoordinated,
                          driver::ProtocolKind::kPessimisticLog}) {
    const Row row = measure(kind, seeds);
    t.row().cell(row.name).cell(row.clcs, 1).cell(row.wan_ctl_kb, 1)
        .cell(row.nodes_restored, 1).cell(row.lost_work_s, 1)
        .cell(row.undone_events, 1);
  }
  std::printf("%s\n", t.to_ascii().c_str());
  std::printf(
      "Reading guide: pessimistic-log restores ~1 node per fault but pays\n"
      "for every delivery twice; the coordinated baselines restore every\n"
      "node every fault; HC3I restores one cluster plus dependents, with\n"
      "WAN control traffic limited to piggybacks, acks and alerts.\n"
      "HC3I's checkpoint count grows with inter-cluster chatter — the\n"
      "paper's own caveat (§5.3): outside the code-coupling regime most\n"
      "messages force a CLC.\n");
  return 0;
}
