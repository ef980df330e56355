#pragma once

// Shared scaffolding for the paper-reproduction benches.
//
// Every bench binary regenerates one table or figure from the paper's
// evaluation (§5) on the reference workload: two clusters x 100 nodes,
// Myrinet-like SANs, Ethernet-like interconnect, 10 simulated hours,
// message census per Table 1.  Numbers are seed-averaged (--seeds=N).

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string>
#include <string_view>

#include "config/presets.hpp"
#include "driver/run.hpp"
#include "stats/accumulators.hpp"
#include "stats/table.hpp"
#include "util/flags.hpp"

namespace hc3i::bench {

/// Parse argv and exit 2 on any flag outside `known`: a typo (say --seeds
/// on a --seed bench) must fail, not silently run the default.
inline Flags parse_flags(int argc, char** argv,
                         std::initializer_list<std::string_view> known) {
  Flags flags = Flags::parse(argc, argv);
  if (const std::string unknown = flags.unknown_flag(known); !unknown.empty()) {
    std::fprintf(stderr, "%s\n", unknown.c_str());
    std::exit(2);
  }
  return flags;
}

/// One run of the paper §5.2 reference scenario.
inline driver::RunResult run_reference(SimTime timer0, SimTime timer1,
                                       double messages_1_to_0,
                                       SimTime gc_period, std::uint64_t seed) {
  driver::RunOptions opts;
  opts.spec.topology = config::paper_reference_topology();
  opts.spec.application = config::paper_reference_application(messages_1_to_0);
  opts.spec.timers =
      config::paper_reference_timers(timer0, timer1, gc_period);
  opts.seed = seed;
  return driver::run_simulation(opts);
}

/// Seed-averaged committed-CLC counts for one timer configuration.
struct ClcCounts {
  double forced0{0}, unforced0{0}, forced1{0}, unforced1{0};
};

inline ClcCounts average_clcs(SimTime timer0, SimTime timer1,
                              double messages_1_to_0, int seeds) {
  ClcCounts avg;
  for (int s = 1; s <= seeds; ++s) {
    const auto r = run_reference(timer0, timer1, messages_1_to_0,
                                 SimTime::infinity(), static_cast<std::uint64_t>(s));
    avg.forced0 += static_cast<double>(r.clc_forced(ClusterId{0}));
    avg.unforced0 += static_cast<double>(r.clc_unforced(ClusterId{0}));
    avg.forced1 += static_cast<double>(r.clc_forced(ClusterId{1}));
    avg.unforced1 += static_cast<double>(r.clc_unforced(ClusterId{1}));
  }
  avg.forced0 /= seeds;
  avg.unforced0 /= seeds;
  avg.forced1 /= seeds;
  avg.unforced1 /= seeds;
  return avg;
}

/// Print a standard bench header.
inline void print_header(const char* id, const char* title,
                         const char* paper_summary) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", id, title);
  std::printf("Paper reports: %s\n", paper_summary);
  std::printf("==============================================================\n\n");
}

}  // namespace hc3i::bench
