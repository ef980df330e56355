// Fault-campaign scenario: recovery cost vs fault rate vs federation size.
//
// The paper proves the protocol *correct* under failures; this scenario
// measures what recovery *costs* as fault load and cluster count grow — the
// comparison axis of the CIC literature (rollback fanout, replayed
// messages, lost work, restart latency).  Each row runs the scale-out ring
// workload (config::scale_federation_spec) under a federation-wide Poisson
// failure stream of the given MTBF and reports the per-incident recovery
// telemetry the fault subsystem records.
//
//   ./fault_campaign                                   # default sweep
//   ./fault_campaign --clusters=2,5,10 --mtbf=5min,2min,1min
//   ./fault_campaign --nodes=50 --minutes=20 --seed=3
//   ./fault_campaign --reference --clusters=10         # the fixed reference
//                                                      #   campaign + incident
//                                                      #   table (CI golden's
//                                                      #   scenario)
//   ./fault_campaign --overlap --clusters=10           # the overlapping-burst
//                                                      #   campaign: concurrent
//                                                      #   per-cluster
//                                                      #   recoveries, conc
//                                                      #   column + residual
//                                                      #   row in the table
//
// Columns: ev/s (simulator throughput under fault load), faults (injected),
// rb/fault (cluster rollbacks per incident, cascades included), fanout
// (rollback alerts per incident), replay (logged messages re-sent), lost_s
// (node-seconds of recomputation), lat_ms (mean injection-to-resume
// recovery latency).

#include <cstdio>
#include <string>
#include <vector>

#include "config/presets.hpp"
#include "driver/report.hpp"
#include "driver/run.hpp"
#include "fault/campaign.hpp"
#include "util/check.hpp"
#include "util/flags.hpp"
#include "util/quantity.hpp"
#include "util/walltime.hpp"

using namespace hc3i;

namespace {

using util::now_sec;

/// Split "a,b,c" into non-empty tokens.
std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= s.size()) {
    const std::size_t comma = s.find(',', pos);
    const std::string tok =
        s.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) out.push_back(tok);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

struct Row {
  std::size_t clusters;
  SimTime mtbf;
  std::uint64_t events;
  double wall_sec;
  std::uint64_t faults;
  std::uint64_t rollbacks;
  std::uint64_t fanout;
  std::uint64_t replayed;
  double lost_work_s;
  double mean_latency_s;
};

Row run_one(std::size_t clusters, std::uint32_t nodes, SimTime total,
            SimTime mtbf, std::uint64_t seed) {
  driver::RunOptions opts;
  opts.spec = config::scale_federation_spec(clusters, nodes, total);
  fault::StreamSpec stream;  // federation-wide Poisson fault load
  stream.mtbf = mtbf;
  opts.campaign.streams.push_back(stream);
  opts.seed = seed;
  const double t0 = now_sec();
  const driver::RunResult result = driver::run_simulation(opts);
  Row row{};
  row.clusters = clusters;
  row.mtbf = mtbf;
  row.events = result.events_executed;
  row.wall_sec = now_sec() - t0;
  row.faults = result.counter("fault.injected");
  row.rollbacks = result.counter("rollback.count");
  row.fanout = result.counter("rollback.alerts");
  row.replayed = result.counter("log.resent_msgs");
  row.lost_work_s = result.registry.summary("rollback.lost_work_s").sum();
  row.mean_latency_s =
      result.registry.summary("fault.recovery_latency_s").mean();
  return row;
}

int run_reference(std::size_t clusters, std::uint32_t nodes, SimTime total,
                  std::uint64_t seed, bool overlap) {
  driver::RunOptions opts;
  opts.spec = config::scale_federation_spec(clusters, nodes, total);
  opts.campaign =
      overlap ? fault::reference_overlap_campaign(clusters, nodes, total)
              : fault::reference_scale_campaign(clusters, nodes, total);
  if (overlap) {
    // Reject campaigns whose same-cluster queues cannot drain before the
    // quiesce bound (a burst denser than the cluster's recovery rate).
    try {
      fault::check_queue_bounds(opts.campaign, opts.spec,
                                opts.spec.application.total_time);
    } catch (const CheckFailure& e) {
      std::fprintf(stderr, "unbounded same-cluster queue: %s\n", e.what());
      return 2;
    }
  }
  opts.seed = seed;
  const driver::RunResult result = driver::run_simulation(opts);
  std::printf("%s", driver::render_report(result, clusters).c_str());
  return result.violations.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags = Flags::parse(argc, argv);
  if (const std::string unknown = flags.unknown_flag(
          {"clusters", "nodes", "seed", "minutes", "mtbf", "reference",
           "overlap"});
      !unknown.empty()) {
    std::fprintf(stderr, "%s\n", unknown.c_str());
    return 2;
  }
  const auto nodes = static_cast<std::uint32_t>(flags.get_int("nodes", 100));
  const auto seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  const SimTime total = minutes(flags.get_int("minutes", 20));

  std::vector<std::size_t> clusters;
  for (const std::string& tok : split_list(flags.get("clusters", ""))) {
    const auto v = parse_uint(tok);
    if (!v || *v < 2) {
      std::fprintf(stderr, "--clusters wants counts >= 2, got '%s'\n",
                   tok.c_str());
      return 2;
    }
    clusters.push_back(static_cast<std::size_t>(*v));
  }
  if (clusters.empty()) clusters = {2, 5, 10};

  if (flags.get_bool("reference", false) || flags.get_bool("overlap", false)) {
    return run_reference(clusters.back(), nodes, total, seed,
                         flags.get_bool("overlap", false));
  }

  std::vector<SimTime> mtbfs;
  for (const std::string& tok : split_list(flags.get("mtbf", ""))) {
    const auto v = parse_duration(tok);
    if (!v || v->is_infinite() || v->ns <= 0) {
      std::fprintf(stderr, "--mtbf wants finite durations, got '%s'\n",
                   tok.c_str());
      return 2;
    }
    mtbfs.push_back(*v);
  }
  if (mtbfs.empty()) mtbfs = {minutes(10), minutes(5), minutes(2)};

  std::printf("fault-campaign sweep — %u nodes/cluster, %s simulated, ring "
              "traffic,\nfederation-wide Poisson failure stream (one fault "
              "in flight per cluster, paper 2.1)\n\n",
              nodes, to_string(total).c_str());
  std::printf("%9s %8s %11s %7s %9s %7s %8s %8s %8s\n", "clusters", "mtbf",
              "ev/s", "faults", "rb/fault", "fanout", "replay", "lost_s",
              "lat_ms");
  for (const std::size_t c : clusters) {
    for (const SimTime mtbf : mtbfs) {
      const Row r = run_one(c, nodes, total, mtbf, seed);
      std::printf("%9zu %8s %11.0f %7llu %9.2f %7llu %8llu %8.1f %8.1f\n", c,
                  to_string(r.mtbf).c_str(),
                  r.wall_sec > 0 ? r.events / r.wall_sec : 0.0,
                  static_cast<unsigned long long>(r.faults),
                  r.faults > 0 ? static_cast<double>(r.rollbacks) /
                                     static_cast<double>(r.faults)
                               : 0.0,
                  static_cast<unsigned long long>(r.fanout),
                  static_cast<unsigned long long>(r.replayed), r.lost_work_s,
                  r.mean_latency_s * 1e3);
    }
  }
  std::printf(
      "\ncolumns: rb/fault = cluster rollbacks per injected fault (cascades "
      "included);\n         fanout = rollback alerts received federation-"
      "wide; replay = logged\n         messages re-sent; lost_s = node-"
      "seconds of recomputation; lat_ms =\n         mean injection-to-resume "
      "recovery latency.\n");
  return 0;
}
