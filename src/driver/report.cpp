#include "driver/report.hpp"

#include <sstream>

#include "stats/table.hpp"
#include "util/quantity.hpp"

namespace hc3i::driver {

std::string render_report(const RunResult& result, std::size_t clusters) {
  std::ostringstream os;

  os << "== application messages (Table-1-style census) ==\n";
  {
    std::vector<std::string> headers{"from \\ to"};
    for (std::size_t j = 0; j < clusters; ++j) {
      headers.push_back("C" + std::to_string(j));
    }
    stats::Table t(headers);
    for (std::size_t i = 0; i < clusters; ++i) {
      t.row().cell("C" + std::to_string(i));
      for (std::size_t j = 0; j < clusters; ++j) {
        t.cell(result.app_messages(ClusterId{static_cast<std::uint32_t>(i)},
                                   ClusterId{static_cast<std::uint32_t>(j)}));
      }
    }
    os << t.to_ascii();
  }

  os << "\n== cluster-level checkpoints ==\n";
  {
    stats::Table t({"cluster", "total", "forced", "unforced", "retained",
                    "max stored", "max storage"});
    for (std::size_t c = 0; c < clusters; ++c) {
      const ClusterId cid{static_cast<std::uint32_t>(c)};
      const std::string suffix = ".c" + std::to_string(c);
      t.row()
          .cell("C" + std::to_string(c))
          .cell(result.clc_total(cid))
          .cell(result.clc_forced(cid))
          .cell(result.clc_unforced(cid))
          .cell(result.counter("store.final_clcs" + suffix))
          .cell(result.counter("store.max_clcs" + suffix))
          .cell(format_bytes(result.counter("store.max_bytes" + suffix)));
    }
    os << t.to_ascii();
  }

  os << "\n== protocol traffic ==\n";
  {
    stats::Table t({"class", "messages", "bytes"});
    for (const char* key : {"app.intra", "app.inter", "ctl.intra", "ctl.inter"}) {
      const std::string base = std::string("net.") + key;
      t.row().cell(std::string(key))
          .cell(result.counter(base + ".msgs"))
          .cell(format_bytes(result.counter(base + ".bytes")));
    }
    os << t.to_ascii();
  }

  os << "\n== fault tolerance ==\n";
  os << "failures injected        : " << result.counter("fault.injected")
     << " (skipped mid-recovery: " << result.counter("fault.skipped_overlap")
     << ", queued same-cluster: "
     << result.counter("fault.queued_same_cluster")
     << ", dropped at quiesce bound: "
     << result.counter("fault.skipped_quiesce") << ")\n";
  const fault::RecoveryCost cost = fault::RecoveryCost::read(
      result.registry, result.counter("ledger.undone_events"));
  os << "cluster rollbacks        : " << cost.rollbacks << " ("
     << cost.nodes_rolled_back << " node restores)\n";
  os << "rollback alerts          : " << cost.alert_fanout << "\n";
  os << "logged messages re-sent  : " << cost.replayed_msgs << " ("
     << format_bytes(cost.replayed_bytes) << ")\n";
  os << "stale messages discarded : " << result.counter("cic.stale_dropped") << "\n";
  os << "duplicates suppressed    : " << result.counter("cic.dup_dropped") << "\n";
  os << "work lost to rollbacks   : " << cost.lost_work_s
     << " node-seconds over "
     << fault::RecoveryCost::lost_work(result.registry).count()
     << " restores that lost work\n";
  const stats::Summary latency = fault::latency_summary(result.incidents);
  if (latency.count() > 0) {
    os << "recovery latency         : " << latency.mean() << " s mean, "
       << latency.max() << " s max over " << latency.count()
       << " recoveries\n";
    const auto& h = result.recovery_latency_us;
    if (h.count() > 0) {
      // Log2-bucket quantiles: the tail the mean hides when recoveries
      // overlap.  Bucket resolution is a factor of two, which is enough to
      // tell "one slow cascade" from "uniformly slow".
      os << "recovery latency pcts    : p50 " << h.quantile(0.50) * 1e-6
         << " s, p95 " << h.quantile(0.95) * 1e-6 << " s, p99 "
         << h.quantile(0.99) * 1e-6 << " s (log2 buckets)\n";
    }
  }
  os << "GC rounds                : " << result.counter("gc.rounds")
     << " (aborted: " << result.counter("gc.aborted") << ")\n";

  if (cost.ckpt_bytes_written > 0) {
    os << "\n== checkpoint storage ==\n";
    os << "checkpoint bytes written : " << format_bytes(cost.ckpt_bytes_written)
       << "\n";
    os << "saved by delta capture   : "
       << format_bytes(cost.ckpt_bytes_delta_saved) << "\n";
    os << "capture stall            : "
       << static_cast<double>(cost.ckpt_stall_us) * 1e-6 << " node-seconds\n";
    os << "recovery chain reads     : "
       << static_cast<double>(cost.recovery_read_us) * 1e-6 << " seconds\n";
  }

  if (!result.incidents.empty()) {
    os << "\n== fault incidents (recovery telemetry) ==\n";
    // Storage columns only when the run charged storage costs: keeps the
    // table narrow (and byte-identical) for every pre-storage scenario.
    const bool storage_cols =
        cost.ckpt_bytes_written > 0 || cost.recovery_read_us > 0;
    std::vector<std::string> headers{
        "#", "injected", "node", "cluster", "source", "latency", "conc",
        "rollbacks", "nodes", "alerts", "replay msgs", "replay bytes",
        "lost work (s)", "undone"};
    if (storage_cols) {
      headers.push_back("ckpt bytes");
      headers.push_back("read (s)");
    }
    stats::Table t(headers);
    const auto cost_cells = [&t, storage_cols](const fault::RecoveryCost& c) {
      t.cell(c.rollbacks)
          .cell(c.nodes_rolled_back)
          .cell(c.alert_fanout)
          .cell(c.replayed_msgs)
          .cell(format_bytes(c.replayed_bytes))
          .cell(c.lost_work_s, 1)
          .cell(c.events_undone);
      if (storage_cols) {
        t.cell(format_bytes(c.ckpt_bytes_written))
            .cell(static_cast<double>(c.recovery_read_us) * 1e-6, 3);
      }
    };
    for (const fault::Incident& inc : result.incidents) {
      t.row()
          .cell(static_cast<std::uint64_t>(inc.id))
          .cell(to_string(inc.injected_at))
          .cell("n" + std::to_string(inc.victim.v))
          .cell("C" + std::to_string(inc.cluster.v))
          .cell(std::string(inc.source))
          .cell(inc.recovery_complete ? to_string(inc.recovery_latency())
                                      : std::string("incomplete"))
          .cell(static_cast<std::uint64_t>(inc.concurrent_peak));
      cost_cells(inc.cost);
    }
    if (result.fault_summary.has_residual) {
      // Synthetic row: cost that accrued while no incident interval was
      // open (cascade tails, post-campaign replay).  Incident rows plus
      // this row sum exactly to the end-of-run counters.
      const fault::Incident& res = result.fault_summary.residual;
      t.row()
          .cell(std::string("-"))
          .cell(std::string("-"))
          .cell(std::string("-"))
          .cell(std::string("-"))
          .cell(std::string(res.source))
          .cell(std::string("-"))
          .cell(std::string("-"));
      cost_cells(res.cost);
    }
    os << t.to_ascii();
    os << "max concurrent recoveries: " << result.fault_summary.max_overlap
       << "\n";
  }

  if (!result.gc_events.empty()) {
    os << "\n== garbage collection (stored CLCs before -> after) ==\n";
    for (const auto& ev : result.gc_events) {
      os << "  [" << to_string(ev.time) << "] C" << ev.cluster.v << ": "
         << ev.clcs_before << " -> " << ev.clcs_after << "\n";
    }
  }

  os << "\n== consistency ==\n";
  os << "ledger events            : " << result.counter("ledger.total_events")
     << " (undone by rollbacks: " << result.counter("ledger.undone_events")
     << ")\n";
  if (result.violations.empty()) {
    os << "verdict                  : CONSISTENT (no ghost, duplicate or "
          "lost messages)\n";
  } else {
    os << "verdict                  : " << result.violations.size()
       << " VIOLATIONS\n";
    for (const auto& v : result.violations) os << "  - " << v << "\n";
  }

  os << "\nsimulated time " << to_string(result.end_time) << ", "
     << result.events_executed << " events executed\n";
  return os.str();
}

}  // namespace hc3i::driver
