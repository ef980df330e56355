#include "batch/report.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>

#include "stats/table.hpp"

namespace hc3i::batch {

namespace {

/// printf into a growing string (the footer and the JSON).
/// Sized by a first pass, so a long error text is never truncated.
template <typename... Args>
void appendf(std::string* out, const char* fmt, Args... args) {
  const int n = std::snprintf(nullptr, 0, fmt, args...);
  if (n <= 0) return;
  const std::size_t old = out->size();
  out->resize(old + static_cast<std::size_t>(n) + 1);
  std::snprintf(out->data() + old, static_cast<std::size_t>(n) + 1, fmt,
                args...);
  out->resize(old + static_cast<std::size_t>(n));
}

/// Escape the few characters a CheckFailure message could smuggle into a
/// JSON string.
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          appendf(&out, "\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::uint64_t BatchReport::total_events() const {
  std::uint64_t n = 0;
  for (const CaseResult& c : cases) n += c.events;
  return n;
}

std::size_t BatchReport::failures() const {
  std::size_t n = 0;
  for (const CaseResult& c : cases) {
    if (!c.ok) ++n;
  }
  return n;
}

double BatchReport::runs_per_min() const {
  return wall_sec > 0 ? 60.0 * static_cast<double>(cases.size()) / wall_sec
                      : 0.0;
}

std::string BatchReport::render_table() const {
  // Aggregate per (topology, campaign, storage) cell, in first-appearance
  // (grid) order.  Counts and recovery cost are summed over the cell's runs;
  // pairs and max_clcs are maxima; lat_ms is the mean over the runs that
  // completed a recovery.
  struct Cell {
    const CaseResult* first{nullptr};  ///< first case: its row labels
    std::uint64_t runs{0}, events{0}, clcs{0}, faults{0};
    double wall_sec{0.0};
    fault::RecoveryCost cost;
    double latency_s{0.0};
    std::size_t latency_runs{0};
    std::uint64_t pairs{0}, max_clcs{0}, gc_saved_bytes{0}, failed{0};
  };
  // The storage columns (and the per-cell split by storage point) appear
  // only when some case actually ran on the storage axis.
  bool any_storage = false;
  for (const CaseResult& c : cases) any_storage |= !c.storage.empty();
  std::vector<Cell> cells;
  for (const CaseResult& c : cases) {
    auto it = std::find_if(cells.begin(), cells.end(), [&c](const Cell& k) {
      return k.first->topology == c.topology &&
             k.first->campaign == c.campaign && k.first->storage == c.storage;
    });
    if (it == cells.end()) {
      it = cells.emplace(cells.end());
      it->first = &c;
    }
    Cell* cell = &*it;
    ++cell->runs;
    cell->events += c.events;
    cell->wall_sec += c.wall_sec;
    cell->clcs += c.clcs;
    cell->faults += c.faults;
    cell->cost += c.cost;
    if (c.recovery_latency_s > 0) {
      cell->latency_s += c.recovery_latency_s;
      ++cell->latency_runs;
    }
    cell->pairs = std::max(cell->pairs, c.pairs);
    cell->max_clcs = std::max(cell->max_clcs, c.max_clcs);
    cell->gc_saved_bytes += c.gc_saved_bytes;
    if (!c.ok) ++cell->failed;
  }

  std::vector<std::string> headers{
      "topology", "campaign", "runs",   "events", "ev/s",     "clcs",
      "faults",   "rb",       "fanout", "replay", "lost_s",   "lat_ms",
      "pairs",    "max_clcs", "gc_saved_B"};
  if (any_storage) {
    headers.insert(headers.begin() + 2, "storage");
    headers.insert(headers.end(),
                   {"ckpt bytes", "stall s", "read s", "cost s"});
  }
  headers.emplace_back("fail");
  stats::Table t(std::move(headers));
  for (const Cell& cell : cells) {
    const CaseResult& first = *cell.first;
    const fault::RecoveryCost& cost = cell.cost;
    t.row().cell(first.topology).cell(first.campaign);
    if (any_storage) t.cell(first.storage.empty() ? "off" : first.storage);
    t.cell(cell.runs)
        .cell(cell.events)
        .cell(cell.wall_sec > 0
                  ? static_cast<double>(cell.events) / cell.wall_sec
                  : 0.0,
              0)
        .cell(cell.clcs)
        .cell(cell.faults)
        .cell(cost.rollbacks)
        .cell(cost.alert_fanout)
        .cell(cost.replayed_msgs)
        .cell(cost.lost_work_s, 1)
        .cell(cell.latency_runs > 0
                  ? cell.latency_s * 1e3 /
                        static_cast<double>(cell.latency_runs)
                  : 0.0,
              1)
        .cell(cell.pairs)
        .cell(cell.max_clcs)
        .cell(cell.gc_saved_bytes);
    if (any_storage) {
      const double stall_s = static_cast<double>(cost.ckpt_stall_us) * 1e-6;
      const double read_s = static_cast<double>(cost.recovery_read_us) * 1e-6;
      t.cell(cost.ckpt_bytes_written)
          .cell(stall_s, 2)
          .cell(read_s, 2)
          .cell(stall_s + read_s + cost.lost_work_s, 1);
    }
    t.cell(cell.failed);
  }
  std::string out = t.to_ascii();
  std::uint64_t reused = 0, fresh = 0;
  for (const WorkerStats& w : workers) {
    reused += w.pool_reused;
    fresh += w.pool_fresh;
  }
  const double reuse_pct =
      reused + fresh > 0
          ? 100.0 * static_cast<double>(reused) /
                static_cast<double>(reused + fresh)
          : 0.0;
  appendf(&out,
          "\n%zu runs on %zu thread%s in %.2f s — %.1f runs/min, %llu "
          "events, pool reuse %.1f%%\n",
          cases.size(), threads, threads == 1 ? "" : "s", wall_sec,
          runs_per_min(), static_cast<unsigned long long>(total_events()),
          reuse_pct);
  const std::size_t failed = failures();
  if (failed > 0) {
    appendf(&out, "%zu FAILED case%s:\n", failed, failed == 1 ? "" : "s");
    for (const CaseResult& c : cases) {
      if (c.ok) continue;
      const std::string label =
          c.topology + "/" + c.campaign +
          (c.storage.empty() ? "" : "/" + c.storage);
      appendf(&out, "  %s s=%llu: %s\n", label.c_str(),
              static_cast<unsigned long long>(c.seed),
              c.error.empty()
                  ? (std::to_string(c.violations) + " consistency violations")
                        .c_str()
                  : c.error.c_str());
    }
  }
  return out;
}

std::string BatchReport::to_json() const {
  std::string out = "{\n";
  appendf(&out,
          "  \"threads\": %zu,\n  \"runs\": %zu,\n  \"failures\": %zu,\n"
          "  \"wall_sec\": %.6f,\n  \"runs_per_min\": %.2f,\n"
          "  \"total_events\": %llu,\n",
          threads, cases.size(), failures(), wall_sec, runs_per_min(),
          static_cast<unsigned long long>(total_events()));
  out += "  \"workers\": [\n";
  for (std::size_t i = 0; i < workers.size(); ++i) {
    const WorkerStats& w = workers[i];
    appendf(&out,
            "    {\"runs\": %zu, \"wall_sec\": %.6f, \"pool_reused\": %llu, "
            "\"pool_fresh\": %llu}%s\n",
            w.runs, w.wall_sec, static_cast<unsigned long long>(w.pool_reused),
            static_cast<unsigned long long>(w.pool_fresh),
            i + 1 < workers.size() ? "," : "");
  }
  out += "  ],\n  \"cases\": [\n";
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const CaseResult& c = cases[i];
    // Storage fields only for cases on the storage axis.
    std::string storage_fields;
    if (!c.storage.empty()) {
      appendf(&storage_fields,
              "\"storage\": \"%s\", \"ckpt_bytes\": %llu, "
              "\"ckpt_saved\": %llu, \"ckpt_stall_us\": %llu, "
              "\"recovery_read_us\": %llu, ",
              json_escape(c.storage).c_str(),
              static_cast<unsigned long long>(c.cost.ckpt_bytes_written),
              static_cast<unsigned long long>(c.cost.ckpt_bytes_delta_saved),
              static_cast<unsigned long long>(c.cost.ckpt_stall_us),
              static_cast<unsigned long long>(c.cost.recovery_read_us));
    }
    appendf(&out,
            "    {\"topology\": \"%s\", \"campaign\": \"%s\", %s\"seed\": "
            "%llu, "
            "\"ok\": %s, \"events\": %llu, \"violations\": %llu, "
            "\"clcs\": %llu, \"faults\": %llu, \"rollbacks\": %llu, "
            "\"fanout\": %llu, \"replayed\": %llu, \"lost_work_s\": %.3f, "
            "\"recovery_latency_s\": %.6f, \"pairs\": %llu, "
            "\"max_clcs\": %llu, \"gc_saved_bytes\": %llu, "
            "\"digest\": \"%016llx\", \"wall_sec\": %.6f%s%s%s}%s\n",
            json_escape(c.topology).c_str(), json_escape(c.campaign).c_str(),
            storage_fields.c_str(),
            static_cast<unsigned long long>(c.seed), c.ok ? "true" : "false",
            static_cast<unsigned long long>(c.events),
            static_cast<unsigned long long>(c.violations),
            static_cast<unsigned long long>(c.clcs),
            static_cast<unsigned long long>(c.faults),
            static_cast<unsigned long long>(c.cost.rollbacks),
            static_cast<unsigned long long>(c.cost.alert_fanout),
            static_cast<unsigned long long>(c.cost.replayed_msgs),
            c.cost.lost_work_s,
            c.recovery_latency_s, static_cast<unsigned long long>(c.pairs),
            static_cast<unsigned long long>(c.max_clcs),
            static_cast<unsigned long long>(c.gc_saved_bytes),
            static_cast<unsigned long long>(c.digest), c.wall_sec,
            c.error.empty() ? "" : ", \"error\": \"",
            c.error.empty() ? "" : json_escape(c.error).c_str(),
            c.error.empty() ? "" : "\"", i + 1 < cases.size() ? "," : "");
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace hc3i::batch
