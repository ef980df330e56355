// Paper check: the paper's evaluation as one table of checked cells.
//
//   ./paper_check        (no flags; exit 1 if any checked cell is out of band)
//
// Each cell names an artefact of §5 (Tables 1-3, Figures 6-9) or of the
// §2.2/§6/§7 ablations A1-A5, an x point, a scenario with a fixed seed list,
// a per-run metric, and the paper's value as transcribed in-tree
// (docs/paper_map.md, ROADMAP.md, the headers of the bench mains this file
// replaced).  Each distinct (scenario, seed) runs once, in table order.
//
// One tolerance rule per kind of statement, applied to the seed mean:
//
//   exact table count  n      n +- max(10 % of n, 3 standard errors)
//   approximate        ~x     x +- 25 %
//   range              a-b    [0.9 a, 1.1 b]
//   exact zero         0      every seed reads 0
//   relation           < / ~r below the other side's mean, or ~r times it
//
// A cell the model does not reproduce carries a named deviation: an expected
// value read by the same rule and a reason (docs/paper_map.md "Deviations").
// It fails outside that band and also back inside the paper band, so a model
// fix must retire it.  Sweep points without a paper number, and cells whose
// transcriptions disagree, are report-only.

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "config/presets.hpp"
#include "driver/run.hpp"
#include "stats/accumulators.hpp"
#include "stats/table.hpp"
#include "util/check.hpp"
#include "util/flags.hpp"

using namespace hc3i;

namespace {

// --- scenarios -------------------------------------------------------------

enum class Workload {
  kReference,     ///< §5.2: 2 x 100 nodes, 10 h (Figs 6-9, Tables 1-2, A4)
  kThreeCluster,  ///< §5.4 Table 3: cluster 2 clones cluster 1
  kRelay,         ///< A1: three-cluster relay pipeline, 3 x 10 nodes
  kProtocols,     ///< A2/A3: 2 x 20 nodes under a 45-min MTBF stream
  kReplication,   ///< A5: 2 x 10 nodes, one kill at 70 min
};

struct Scenario {
  Workload workload{Workload::kReference};
  int timer0{30};    ///< cluster 0 CLC period [min], 0 = infinite
  int timer1{30};    ///< cluster 1 CLC period [min], 0 = infinite
  int messages{11};  ///< expected cluster 1 -> cluster 0 messages
  int gc{0};         ///< GC period [min], 0 = off
  int variant{0};    ///< A1 transitive DDV, A2/A3 protocol, A5 degree
  auto operator<=>(const Scenario&) const = default;
};

SimTime period(int min) {
  return min == 0 ? SimTime::infinity() : minutes(min);
}

driver::RunOptions build(const Scenario& s, std::uint64_t seed) {
  driver::RunOptions opts;
  opts.seed = seed;
  config::ApplicationSpec& app = opts.spec.application;
  switch (s.workload) {
    case Workload::kReference:
      opts.spec.topology = config::paper_reference_topology();
      app = config::paper_reference_application(s.messages);
      opts.spec.timers = config::paper_reference_timers(
          period(s.timer0), period(s.timer1), period(s.gc));
      break;
    case Workload::kThreeCluster:
      opts.spec.topology = config::paper_three_cluster_topology();
      app = config::paper_three_cluster_application();
      opts.spec.timers = config::paper_three_cluster_timers(period(s.gc));
      break;
    case Workload::kRelay:
      // Pipeline traffic (paper Fig. 1): heavy intra, modest downstream
      // relay, a thin direct edge C0 -> C2 whose SN C2 can learn via C1.
      opts.spec = config::small_test_spec(3, 10);
      app.total_time = hours(6);
      app.clusters[0].traffic = {0.90, 0.07, 0.03};
      app.clusters[1].traffic = {0.00, 0.93, 0.07};
      app.clusters[2].traffic = {0.00, 0.00, 1.00};
      for (auto& t : opts.spec.timers.clusters) t.clc_period = minutes(20);
      opts.hc3i.transitive_ddv = s.variant != 0;
      break;
    case Workload::kProtocols:
      // Small enough to keep the global baselines' 2PC traffic readable;
      // the code-coupling regime of §2.1: heavy intra, thin inter.
      opts.spec = config::small_test_spec(2, 20);
      app.total_time = hours(4);
      app.state_bytes = 8ull * 1024 * 1024;
      for (auto& c : app.clusters) c.mean_compute = minutes(1);
      app.clusters[0].traffic = {0.97, 0.03};
      app.clusters[1].traffic = {0.03, 0.97};
      for (auto& t : opts.spec.timers.clusters) t.clc_period = minutes(30);
      opts.protocol = static_cast<driver::ProtocolKind>(s.variant);
      opts.campaign.streams.emplace_back().mtbf = minutes(45);
      break;
    case Workload::kReplication:
      opts.spec = config::small_test_spec(2, 10);
      app.total_time = hours(2);
      app.state_bytes = 8ull * 1024 * 1024;
      for (auto& t : opts.spec.timers.clusters) t.clc_period = minutes(20);
      opts.hc3i.replication = static_cast<std::uint32_t>(s.variant);
      opts.campaign.kills.push_back(fault::KillSpec{minutes(70), NodeId{3}});
      break;
  }
  return opts;
}

// --- metrics ---------------------------------------------------------------

using Result = driver::RunResult;
using Metric = std::function<double(const Result&)>;

constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

/// A counter `RunResult` has no accessor for, divided by `scale`.
Metric counter(std::string name, double scale = 1.0) {
  return [name = std::move(name), scale](const Result& r) {
    return static_cast<double>(r.counter(name)) / scale;
  };
}

using PerCluster = std::uint64_t (Result::*)(ClusterId) const;

/// The sum of the per-cluster `counts` over `clusters`.
Metric per_cluster(std::vector<PerCluster> counts,
                   std::vector<std::uint32_t> clusters) {
  return [counts = std::move(counts),
          clusters = std::move(clusters)](const Result& r) {
    double sum = 0;
    for (const std::uint32_t c : clusters) {
      for (const PerCluster count : counts) {
        sum += static_cast<double>((r.*count)(ClusterId{c}));
      }
    }
    return sum;
  };
}
Metric forced(std::vector<std::uint32_t> clusters) {
  return per_cluster({&Result::clc_forced}, std::move(clusters));
}
Metric unforced(std::uint32_t c) {
  return per_cluster({&Result::clc_unforced}, {c});
}
/// Forced plus unforced: every committed CLC but the initial one.
Metric taken(std::uint32_t c) {
  return per_cluster({&Result::clc_forced, &Result::clc_unforced}, {c});
}

enum class Gc { kBefore, kAfter };

/// Stored CLCs of cluster `c` at each of its GCs, in order.
std::vector<double> gc_values(const Result& r, std::uint32_t c, Gc field) {
  std::vector<double> v;
  for (const core::GcEvent& e : r.gc_events) {
    if (e.cluster.v != c) continue;
    v.push_back(static_cast<double>(field == Gc::kBefore ? e.clcs_before
                                                         : e.clcs_after));
  }
  return v;
}
Metric gc_extreme(std::uint32_t c, Gc field, bool max) {
  return [c, field, max](const Result& r) {
    const std::vector<double> v = gc_values(r, c, field);
    HC3I_CHECK(!v.empty(), "paper_check: a GC scenario ran no GC");
    return max ? *std::max_element(v.begin(), v.end())
               : *std::min_element(v.begin(), v.end());
  };
}
Metric gc_round(std::uint32_t c, Gc field, std::size_t round) {
  return [c, field, round](const Result& r) {
    const std::vector<double> v = gc_values(r, c, field);
    HC3I_CHECK(round < v.size(), "paper_check: too few GC rounds");
    return v[round];
  };
}

// --- cells -----------------------------------------------------------------

enum class Claim { kCount, kApprox, kRange, kZero, kLess, kRatio, kReport };

/// The paper's value and how it reads.
struct Statement {
  Claim claim;
  double a, b;
  const char* text;  ///< as transcribed
};

Statement count(double n, const char* t) { return {Claim::kCount, n, n, t}; }
Statement approx(double x, const char* t) { return {Claim::kApprox, x, x, t}; }
Statement range(double a, double b, const char* t) {
  return {Claim::kRange, a, b, t};
}
Statement zero() { return {Claim::kZero, 0, 0, "0"}; }
Statement less(const char* t) { return {Claim::kLess, 0, 0, t}; }
Statement ratio(double r, const char* t) { return {Claim::kRatio, r, r, t}; }
Statement report(const char* t = "-") { return {Claim::kReport, 0, 0, t}; }

/// What the model reads instead of the paper, by the cell's rule, and why.
struct Deviation {
  double a, b;
  const char* reason;
};

using Seeds = std::vector<std::uint64_t>;

struct Cell {
  std::string artefact, x, metric;
  Scenario scenario;
  Seeds seeds;
  Metric value;
  Statement paper;
  /// The other side of a kLess / kRatio relation (same seeds).
  std::optional<std::pair<Scenario, Metric>> rhs{};
  std::optional<Deviation> deviation{};
  int precision{1};
};

const Seeds kTenSeeds{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
const Seeds kSeedOne{1};

std::string num(double v, int precision = 0) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

// The reasons are repeated in docs/paper_map.md "Deviations".
constexpr Deviation kKeepsOne{
    1, 1,
    "a GC keeps each cluster's CLCs from its recovery-line bound on, "
    "usually only the newest; the transcriptions do not say why the "
    "paper keeps one more"};
constexpr Deviation kFewArrivals{
    22, 31,
    "~200 arrivals per cluster in 10 h are ~40 per 2-h GC period and only a "
    "fresh SN forces, so 22-31 CLCs accumulate; the paper's 50-80 exceed "
    "even one CLC per arrival plus the 4 timer CLCs"};

std::vector<Cell> paper_table() {
  std::vector<Cell> t;
  const auto add = [&t](Cell c) { t.push_back(std::move(c)); };

  // Table 1 (§5.2): the message census; it is Figure 8's run at x = 30.
  const std::vector<std::tuple<std::uint32_t, std::uint32_t, Statement>>
      census{{0, 0, count(2920, "2920")}, {1, 1, count(2497, "2497")},
             {0, 1, count(145, "145")}, {1, 0, count(11, "11")}};
  for (const auto& [from, to, paper] : census) {
    const ClusterId a{from}, b{to};
    add({"Table 1",
         "C" + std::to_string(from) + "->C" + std::to_string(to), "messages",
         Scenario{}, kTenSeeds,
         [a, b](const Result& r) {
           return static_cast<double>(r.app_messages(a, b));
         },
         paper});
  }

  // Figures 6 and 7 (§5.2): one sweep of cluster 0's timer with cluster 1's
  // infinite; Figure 6 reads cluster 0, Figure 7 cluster 1.
  const std::vector<int> timer0_sweep{5, 10, 20, 30, 45, 60, 90, 120};
  for (const int x : timer0_sweep) {
    const Scenario s{.timer0 = x, .timer1 = 0};
    add({"Fig 6", num(x), "C0 forced", s, kTenSeeds, forced({0}),
         approx(8, "~8")});
    Statement paper = report();
    if (x == 5) paper = approx(120, "~120");
    if (x == 120) paper = report("~5 (bench header) / 2 (ROADMAP: 117 -> 2)");
    add({"Fig 6", num(x), "C0 unforced", s, kTenSeeds, unforced(0), paper});
  }
  for (const int x : timer0_sweep) {
    const Scenario s{.timer0 = x, .timer1 = 0};
    Cell c{"Fig 7", num(x), "C1 forced", s, kTenSeeds, forced({1}), report()};
    if (x == 10) {
      c.paper = approx(90, "~90");
      c.deviation = Deviation{
          58, 58,
          "C1 forces at most once per fresh C0 SN, and C0 commits ~65 CLCs "
          "at a 10-min timer; the paper's ~90 exceeds that bound"};
    }
    if (x == 120) c.paper = approx(10, "~10");
    add(std::move(c));
    add({"Fig 7", num(x), "C1 unforced", s, kTenSeeds, unforced(1), zero()});
  }

  // Figure 8 (§5.2): cluster 0's timer 30 min, cluster 1's swept.
  for (const int x : {15, 20, 25, 30, 40, 50, 60}) {
    const Scenario s{.timer1 = x};
    add({"Fig 8", num(x), "C0 total", s, kTenSeeds, taken(0),
         range(20, 25, "~20-25")});
    Cell total1{"Fig 8", num(x), "C1 total", s, kTenSeeds, taken(1), report()};
    if (x == 60) {
      total1.paper = less("falls with its timer: < x=15");
      total1.rhs = {Scenario{.timer1 = 15}, total1.value};
    }
    add(std::move(total1));
    add({"Fig 8", num(x), "C1 forced", s, kTenSeeds, forced({1}),
         range(25, 30, "~25-30")});
  }

  // Figure 9 (§5.3): both timers 30 min, C1 -> C0 messages swept.
  for (const int x : {10, 30, 50, 70, 90, 110}) {
    const Scenario s{.messages = x};
    Cell total0{"Fig 9", num(x), "C0 total", s, kTenSeeds, taken(0), report()};
    if (x == 10) total0.paper = approx(20, "~20");
    if (x == 110) total0.paper = range(60, 70, "~60-70");
    add(std::move(total0));
    Cell forced0{"Fig 9", num(x), "C0 forced", s, kTenSeeds, forced({0}),
                 report()};
    if (x == 10) {
      forced0.paper = less("grows fast with x: < x=110");
      forced0.rhs = {Scenario{.messages = 110}, forced0.value};
    }
    add(std::move(forced0));
    add({"Fig 9", num(x), "C1 total", s, kTenSeeds, taken(1), report()});
    add({"Fig 9", num(x), "C1 forced", s, kTenSeeds, forced({1}), report()});
  }

  // Tables 2 and 3 state "before a-b" and "always 2" for every GC round:
  // each is checked on the per-run minimum and maximum over the rounds.
  // Seed 1's five rounds (10 h, one GC every 2 h) print next to the
  // paper's per-round "before" values.
  const auto every_gc = [&add](const char* artefact, const Scenario& s,
                               std::uint32_t c, Gc field, Statement paper,
                               std::optional<Deviation> at_min,
                               std::optional<Deviation> at_max) {
    const std::string what =
        "C" + std::to_string(c) + (field == Gc::kBefore ? " before" : " after");
    add({artefact, "all GCs", what + ", min", s, kTenSeeds,
         gc_extreme(c, field, false), paper, {}, at_min});
    add({artefact, "all GCs", what + ", max", s, kTenSeeds,
         gc_extreme(c, field, true), paper, {}, at_max});
  };
  using PerRound = std::vector<std::vector<const char*>>;
  const auto per_gc_rows = [&add](const char* artefact, const Scenario& s,
                                  const PerRound& before) {
    for (std::size_t k = 0; k < 5; ++k) {
      const std::string x = "GC #" + std::to_string(k + 1);
      for (std::uint32_t c = 0; c < before.size(); ++c) {
        const std::string cl = "C" + std::to_string(c);
        const bool listed = k < before[c].size();
        add({artefact, x, cl + " before", s, kSeedOne,
             gc_round(c, Gc::kBefore, k), report(listed ? before[c][k] : "-")});
        add({artefact, x, cl + " after", s, kSeedOne,
             gc_round(c, Gc::kAfter, k), report(listed ? "2" : "-")});
      }
    }
  };

  // Table 2 (§5.4): the Figure 9 configuration with 103 C1 -> C0 messages
  // and one GC every 2 hours, and the same run without GC.
  const Scenario gc2{.messages = 103, .gc = 120};
  const Scenario no_gc2{.messages = 103};
  for (const std::uint32_t c : {0u, 1u}) {
    const std::string cl = "C" + std::to_string(c);
    const std::string suffix = ".c" + std::to_string(c);
    every_gc("Table 2", gc2, c, Gc::kBefore, range(10, 18, "10-18"), {}, {});
    every_gc("Table 2", gc2, c, Gc::kAfter, count(2, "always 2"), kKeepsOne,
             kKeepsOne);
    add({"Table 2", "no GC", cl + " stored CLCs at 10 h", no_gc2, kTenSeeds,
         counter("store.final_clcs" + suffix), count(63, "63")});
    add({"Table 2", "GC 2 h", cl + " max unacked logged msgs", gc2, kTenSeeds,
         counter("log.max_unacked" + suffix), count(4, "4"), {},
         Deviation{1, 1,
                   "an inter-cluster message is acknowledged on delivery, so "
                   "one or two are unacknowledged at a time; the paper's 4 "
                   "depends on when its acknowledgements are sent"}});
    add({"Table 2", "GC 2 h", cl + " log entries high-water", gc2, kTenSeeds,
         counter("log.max_entries" + suffix), report()});
  }
  per_gc_rows("Table 2", gc2,
              {{"10", "18", "15", "14"}, {"11", "18", "14", "15"}});

  // Table 3 (§5.4): three clusters, GC every 2 hours.
  const Scenario gc3{.workload = Workload::kThreeCluster, .gc = 120};
  for (const std::uint32_t c : {0u, 1u, 2u}) {
    std::optional<Deviation> at_max;
    if (c != 0) at_max = kFewArrivals;
    every_gc("Table 3", gc3, c, Gc::kBefore,
             c == 0 ? range(30, 80, "30-80") : range(50, 80, "50-80"),
             kFewArrivals, at_max);
    every_gc("Table 3", gc3, c, Gc::kAfter, count(2, "always 2"), kKeepsOne,
             {});
  }
  per_gc_rows("Table 3", gc3,
              {{"30", "48", "54", "38"},
               {"50", "80", "78", "64"},
               {"50", "80", "78", "64"}});

  // A1 (§7): transitive DDV piggybacking takes fewer forced checkpoints.
  const Metric forced_all = forced({0, 1, 2});
  const Scenario sn_only{.workload = Workload::kRelay};
  const Seeds five{1, 2, 3, 4, 5};
  add({"A1", "SN only", "forced CLCs (federation)", sn_only, five, forced_all,
       report()});
  add({"A1", "full DDV", "forced CLCs (federation)",
       Scenario{.workload = Workload::kRelay, .variant = 1}, five, forced_all,
       less("fewer: < SN only"), std::pair{sn_only, forced_all}});

  // A2/A3 (§2.2, §6): HC3I against the baselines under failures.
  using driver::ProtocolKind;
  const auto protocol = [](ProtocolKind k) {
    return Scenario{.workload = Workload::kProtocols,
                    .variant = static_cast<int>(k)};
  };
  const Metric restored = counter("app.restores");
  const std::vector<std::pair<std::string, Metric>> a2_metrics{
      {"checkpoints", per_cluster({&Result::clc_total}, {0, 1})},
      {"WAN ctl KB", counter("net.ctl.inter.bytes", 1024.0)},
      {"nodes restored", restored},
      {"lost work [s]",
       [](const Result& r) {
         return r.registry.summary("rollback.lost_work_s").sum();
       }},
      {"undone events", counter("ledger.undone_events")}};
  for (const ProtocolKind kind :
       {ProtocolKind::kHc3i, ProtocolKind::kIndependent,
        ProtocolKind::kCoordinatedGlobal,
        ProtocolKind::kHierarchicalCoordinated,
        ProtocolKind::kPessimisticLog}) {
    for (const auto& [metric, value] : a2_metrics) {
      Cell c{"A2/A3", driver::to_string(kind), metric, protocol(kind),
             {1, 2, 3}, value, report()};
      if (metric == "nodes restored" && kind == ProtocolKind::kPessimisticLog) {
        c.paper = less("fewer: < HC3I");
        c.rhs = {protocol(ProtocolKind::kHc3i), restored};
      }
      if (metric == "nodes restored" && kind == ProtocolKind::kHc3i) {
        c.paper = less("fewer: < coordinated-global");
        c.rhs = {protocol(ProtocolKind::kCoordinatedGlobal), restored};
      }
      add(std::move(c));
    }
  }

  // A4 (§5.4 trade-off): GC period against the stored-CLC high-water.  The
  // 120-min and off rows are Table 2's runs.
  const Metric max_clcs = counter("store.max_clcs.c0");
  for (const int gc : {30, 60, 120, 240, 0}) {
    const Scenario s{.messages = 103, .gc = gc};
    const std::string x = gc == 0 ? "off" : std::to_string(gc) + "min";
    add({"A4", x, "GC rounds", s, kSeedOne, counter("gc.rounds"), report()});
    Cell peak{"A4", x, "max CLCs (c0)", s, kSeedOne, max_clcs, report()};
    if (gc == 30) {
      peak.paper = less("bounds storage tighter: < off");
      peak.rhs = {no_gc2, max_clcs};
    }
    add(std::move(peak));
    add({"A4", x, "max storage (c0) [GB]", s, kSeedOne,
         counter("store.max_bytes.c0", kGiB), report(), {}, {}, 2});
  }

  // A5 (§7): replication degree; storage scales with 1 + degree.
  const Metric storage = counter("store.max_bytes.c0", kGiB);
  for (const int d : {0, 1, 2, 3}) {
    const Scenario s{.workload = Workload::kReplication, .variant = d};
    Cell c{"A5", num(d), "storage (c0) [GB]", s, kSeedOne, storage, report(),
           {}, {}, 2};
    if (d > 0) {
      c.paper = ratio(1 + d, "~(1 + degree) x degree 0");
      c.rhs = {Scenario{.workload = Workload::kReplication}, storage};
    }
    add(std::move(c));
    add({"A5", num(d), "intra ctl GB", s, kSeedOne,
         counter("net.ctl.intra.bytes", kGiB), report(), {}, {}, 2});
    add({"A5", num(d), "consistency violations", s, kSeedOne,
         [](const Result& r) { return 1.0 * r.violations.size(); }, zero()});
  }
  return t;
}

// --- evaluation ------------------------------------------------------------

struct Band {
  double lo, hi;
  bool below{false};  ///< "< hi" (a kLess relation), else [lo, hi]
  bool contains(double v) const { return below ? v < hi : v >= lo && v <= hi; }
  std::string text(int precision) const {
    if (below) return "< " + num(hi, precision);
    return "[" + num(lo, precision) + ", " + num(hi, precision) + "]";
  }
};

/// The tolerance rule of `claim` (file header) around (a, b).
Band band(Claim claim, double a, double b, const stats::Summary& s,
          double rhs_mean) {
  switch (claim) {
    case Claim::kCount: {
      const double n = static_cast<double>(s.count());
      const double half = std::max(0.1 * a, 3 * s.stddev() / std::sqrt(n));
      return {a - half, a + half};
    }
    case Claim::kApprox:
      return {0.75 * a, 1.25 * a};
    case Claim::kRange:
      return {0.9 * a, 1.1 * b};
    case Claim::kLess:
      return {0, rhs_mean, true};
    case Claim::kRatio:
      return {0.75 * a * rhs_mean, 1.25 * a * rhs_mean};
    case Claim::kZero:
    case Claim::kReport:
      break;
  }
  return {0, 0};
}

/// Runs each distinct (scenario, seed) once.  A run that throws (its audit
/// or a protocol check) keeps the error, and every cell reading it fails.
class Runner {
 public:
  /// Adds `m` of each seed's run to `out`; returns the first failed run's
  /// error, or an empty string.
  std::string sample(const Scenario& s, const Seeds& seeds, const Metric& m,
                     stats::Summary& out) {
    for (const std::uint64_t seed : seeds) {
      const auto [it, fresh] = runs_.try_emplace(std::pair{s, seed});
      Run& r = it->second;
      if (fresh) {
        try {
          r.result = driver::run_simulation(build(s, seed));
        } catch (const CheckFailure& e) {
          const std::string what = e.what();
          r.error = what.substr(0, what.find('\n'));
        }
      }
      if (!r.result) return r.error;
      out.add(m(*r.result));
    }
    return {};
  }

  std::size_t runs() const { return runs_.size(); }

 private:
  struct Run {
    std::optional<Result> result;
    std::string error;
  };
  std::map<std::pair<Scenario, std::uint64_t>, Run> runs_;
};

struct Outcome {
  stats::Summary seeds;
  std::string band;
  std::string verdict;
  bool failed{false};
};

double mean(const stats::Summary& s) {
  return s.sum() / static_cast<double>(s.count());
}

Outcome evaluate(const Cell& c, Runner& runner) {
  Outcome o;
  stats::Summary rhs;
  std::string error = runner.sample(c.scenario, c.seeds, c.value, o.seeds);
  if (error.empty() && c.rhs) {
    error = runner.sample(c.rhs->first, c.seeds, c.rhs->second, rhs);
  }
  const Claim claim = c.paper.claim;
  if (!error.empty() || claim == Claim::kReport) {
    o.failed = !error.empty();
    o.verdict = o.failed ? "FAIL: " + error : "report";
    return o;
  }
  const auto inside = [&](const Band& b) {
    if (claim == Claim::kZero) return o.seeds.min() == 0 && o.seeds.max() == 0;
    return b.contains(mean(o.seeds));
  };
  const double rhs_mean = c.rhs ? mean(rhs) : 0;
  const Band paper = band(claim, c.paper.a, c.paper.b, o.seeds, rhs_mean);
  o.band = paper.text(c.precision);
  if (!c.deviation) {
    o.failed = !inside(paper);
    o.verdict = o.failed ? "FAIL" : "ok";
    return o;
  }
  const Band dev = band(claim, c.deviation->a, c.deviation->b, o.seeds, 0);
  o.failed = inside(paper) || !inside(dev);
  o.verdict = inside(paper) ? "FAIL: back in the paper band, retire "
              : o.failed    ? "FAIL: outside deviation "
                            : "deviation ";
  o.verdict += dev.text(c.precision);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Flags flags = Flags::parse(argc, argv);
    if (const std::string unknown = flags.unknown_flag({});
        !unknown.empty()) {
      std::fprintf(stderr, "%s\n", unknown.c_str());
      return 2;
    }
    if (!flags.positional().empty()) {
      std::fprintf(stderr, "paper_check takes no arguments\n");
      return 2;
    }
  } catch (const CheckFailure& e) {
    std::fprintf(stderr, "paper_check: %s\n", e.what());
    return 2;
  }

  const std::vector<Cell> cells = paper_table();
  Runner runner;
  std::vector<Outcome> outcomes;
  for (const Cell& c : cells) outcomes.push_back(evaluate(c, runner));

  const std::vector<std::string> columns{
      "x", "metric", "paper", "band", "mean", "seed min..max", "verdict"};
  std::vector<std::string> failing_columns{"artefact"};
  failing_columns.insert(failing_columns.end(), columns.begin(), columns.end());
  stats::Table failing(failing_columns);
  // Appends cell i's columns to the current row of `table`.
  const auto fill = [&](stats::Table& table, std::size_t i) {
    const Cell& c = cells[i];
    const stats::Summary& s = outcomes[i].seeds;
    const bool none = s.count() == 0;
    table.cell(c.x).cell(c.metric).cell(c.paper.text).cell(outcomes[i].band);
    table.cell(none ? "-" : num(mean(s), c.precision));
    table.cell(none ? "-"
                    : num(s.min(), c.precision) + ".." +
                          num(s.max(), c.precision) + " (" +
                          std::to_string(s.count()) + " seeds)");
    table.cell(outcomes[i].verdict);
  };
  std::size_t checked = 0, deviations = 0, failed = 0;
  for (std::size_t i = 0; i < cells.size();) {
    const std::string artefact = cells[i].artefact;
    stats::Table table(columns);
    std::string reasons;
    for (; i < cells.size() && cells[i].artefact == artefact; ++i) {
      const Cell& c = cells[i];
      fill(table.row(), i);
      if (c.paper.claim != Claim::kReport) ++checked;
      if (c.deviation) {
        ++deviations;
        reasons += "deviation (" + c.x + " " + c.metric +
                   "): " + c.deviation->reason + "\n";
      }
      if (outcomes[i].failed) {
        ++failed;
        fill(failing.row().cell(artefact), i);
      }
    }
    std::printf("== %s\n%s%s\n", artefact.c_str(), table.to_ascii().c_str(),
                reasons.c_str());
  }
  if (failed > 0) {
    std::printf("== failing cells\n%s\n", failing.to_ascii().c_str());
  }
  std::printf("paper_check: %zu cells (%zu checked, %zu named deviations), "
              "%zu runs, %zu failing\n",
              cells.size(), checked, deviations, runner.runs(), failed);
  return failed > 0 ? 1 : 0;
}
