#pragma once

// Text format for the three configuration files.
//
// A small INI-style dialect:
//
//   # comment
//   [section possibly with args]
//   key = value
//
// Topology file (failures are not a topology property: MTBF failures are a
// [stream] section of a campaign file):
//   [federation]          clusters = 2
//   [cluster 0]           nodes = 100       latency = 10us   bandwidth = 80Mb/s
//   [link 0 1]            latency = 150us   bandwidth = 100Mb/s
//
// Application file:
//   [application]         total_time = 10h  state_size = 8MB
//   [cluster 0]           mean_compute = 2min   message_size = 10KB
//   [traffic 0]           0 = 0.95   1 = 0.05       # destination weights
//
// Timers file:
//   [timers]              gc_period = 2h    detection_delay = 100ms
//   [cluster 0]           clc_period = 30min
//
// Campaign file (optional fourth file: the declarative fault plan of
// src/fault/campaign.hpp; one section per injector, repeatable):
//   [kill]                at = 6min       node = 130
//   [stream]              mtbf = 8min     cluster = 0   start = 5min  stop = 25min
//   [burst]               cluster = 2     kills = 3     at = 12min    window = 2min
//   [repeat]              node = 7        times = 3     first = 10min gap = 6min
//   [phase_trigger]       cluster = 0     phase = phase1_acks   after_acks = 1
//                         occurrence = 2  node = 2      not_before = 1min
//
// parse_* functions throw ParseError with file/line context on any problem,
// an unknown section or key included.

#include <cstdint>
#include <initializer_list>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "config/spec.hpp"
#include "fault/campaign.hpp"

namespace hc3i::config {

/// Thrown on malformed configuration text.
class ParseError : public std::runtime_error {
 public:
  explicit ParseError(const std::string& what) : std::runtime_error(what) {}
};

/// One parsed [section]: its arguments and key/value pairs.
struct Section {
  std::string name;                ///< first token inside the brackets
  std::vector<std::string> args;   ///< remaining tokens inside the brackets
  std::map<std::string, std::string> values;
  int line{0};                     ///< line number of the [section] header
};

/// Parse the generic INI dialect. `origin` names the source in errors.
std::vector<Section> parse_sections(std::string_view text,
                                    const std::string& origin);

/// Throw ParseError on a key of `sec` outside `known`: a misspelled key
/// would otherwise be ignored and the run would silently use the default.
void check_known_keys(const Section& sec,
                      std::initializer_list<std::string_view> known,
                      const std::string& origin);

/// Readers of one key of `sec`: ParseError, with `origin` and the section's
/// line, when the key is missing or (typed readers) its value malformed.
const std::string& need(const Section& sec, const std::string& key,
                        const std::string& origin);
SimTime need_duration(const Section& sec, const std::string& key,
                      const std::string& origin);
double need_bandwidth(const Section& sec, const std::string& key,
                      const std::string& origin);
std::uint64_t need_uint(const Section& sec, const std::string& key,
                        const std::string& origin);
std::uint64_t need_bytes(const Section& sec, const std::string& key,
                         const std::string& origin);
/// none | local-disk | striped-remote.
StorageSpec::Kind need_storage_kind(const Section& sec, const std::string& key,
                                    const std::string& origin);

/// `key` read by `need_value` (one of the need_* readers), or `def` when the
/// section leaves it out.
template <typename Need, typename T>
T opt(const Section& sec, const std::string& key, T def, Need need_value,
      const std::string& origin) {
  return sec.values.count(key) ? static_cast<T>(need_value(sec, key, origin))
                               : def;
}

/// Parse a topology file (text form).
TopologySpec parse_topology(std::string_view text,
                            const std::string& origin = "<topology>");

/// Parse an application file; requires the topology for cross-validation.
ApplicationSpec parse_application(std::string_view text,
                                  const TopologySpec& topo,
                                  const std::string& origin = "<application>");

/// Parse a timers file; requires the topology for cross-validation.
TimersSpec parse_timers(std::string_view text, const TopologySpec& topo,
                        const std::string& origin = "<timers>");

/// Parse a fault-campaign file; requires the topology for cross-validation
/// (victim nodes and clusters must exist).  Injector sections may repeat;
/// order within each kind is preserved.
fault::Campaign parse_campaign(std::string_view text, const TopologySpec& topo,
                               const std::string& origin = "<campaign>");

/// Load all three files from disk and validate the combination.
RunSpec load_run_spec(const std::string& topology_path,
                      const std::string& application_path,
                      const std::string& timers_path);

/// Read a whole file; throws ParseError if unreadable.
std::string read_file(const std::string& path);

}  // namespace hc3i::config
