#include "config/parser.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "util/quantity.hpp"

namespace hc3i::config {

namespace {

[[noreturn]] void fail(const std::string& origin, int line,
                       const std::string& msg) {
  throw ParseError(origin + ":" + std::to_string(line) + ": " + msg);
}

std::string trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front())))
    s.remove_prefix(1);
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back())))
    s.remove_suffix(1);
  return std::string(s);
}

std::vector<std::string> split_tokens(const std::string& s) {
  std::vector<std::string> out;
  std::istringstream is(s);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

std::size_t cluster_index_arg(const Section& sec, const TopologySpec& topo,
                              const std::string& origin) {
  if (sec.args.size() != 1) {
    fail(origin, sec.line, "[" + sec.name + "] needs one cluster index");
  }
  const auto idx = parse_uint(sec.args[0]);
  if (!idx || *idx >= topo.cluster_count()) {
    fail(origin, sec.line, "cluster index out of range: " + sec.args[0]);
  }
  return static_cast<std::size_t>(*idx);
}

}  // namespace

const std::string& need(const Section& sec, const std::string& key,
                        const std::string& origin) {
  const auto it = sec.values.find(key);
  if (it == sec.values.end()) {
    fail(origin, sec.line, "section [" + sec.name + "] missing key '" + key + "'");
  }
  return it->second;
}

SimTime need_duration(const Section& sec, const std::string& key,
                      const std::string& origin) {
  const auto v = parse_duration(need(sec, key, origin));
  if (!v) fail(origin, sec.line, "bad duration for '" + key + "'");
  return *v;
}

double need_bandwidth(const Section& sec, const std::string& key,
                      const std::string& origin) {
  const auto v = parse_bandwidth(need(sec, key, origin));
  if (!v) fail(origin, sec.line, "bad bandwidth for '" + key + "'");
  return *v;
}

std::uint64_t need_uint(const Section& sec, const std::string& key,
                        const std::string& origin) {
  const auto v = parse_uint(need(sec, key, origin));
  if (!v) fail(origin, sec.line, "bad integer for '" + key + "'");
  return *v;
}

std::uint64_t need_bytes(const Section& sec, const std::string& key,
                         const std::string& origin) {
  const auto v = parse_bytes(need(sec, key, origin));
  if (!v) fail(origin, sec.line, "bad byte size for '" + key + "'");
  return *v;
}

StorageSpec::Kind need_storage_kind(const Section& sec, const std::string& key,
                                    const std::string& origin) {
  const std::string& kind = need(sec, key, origin);
  if (kind == "none") return StorageSpec::Kind::kNone;
  if (kind == "local-disk") return StorageSpec::Kind::kLocalDisk;
  if (kind == "striped-remote") return StorageSpec::Kind::kStripedRemote;
  fail(origin, sec.line, "unknown storage kind '" + kind + "'");
}

std::vector<Section> parse_sections(std::string_view text,
                                    const std::string& origin) {
  std::vector<Section> sections;
  int line_no = 0;
  std::istringstream is{std::string(text)};
  std::string raw;
  while (std::getline(is, raw)) {
    ++line_no;
    // Strip comments (# to end of line) and whitespace.
    const auto hash = raw.find('#');
    if (hash != std::string::npos) raw.erase(hash);
    const std::string line = trim(raw);
    if (line.empty()) continue;
    if (line.front() == '[') {
      if (line.back() != ']') fail(origin, line_no, "unterminated [section]");
      auto tokens = split_tokens(line.substr(1, line.size() - 2));
      if (tokens.empty()) fail(origin, line_no, "empty section header");
      Section sec;
      sec.name = tokens.front();
      sec.args.assign(tokens.begin() + 1, tokens.end());
      sec.line = line_no;
      sections.push_back(std::move(sec));
      continue;
    }
    const auto eq = line.find('=');
    if (eq == std::string::npos) {
      fail(origin, line_no, "expected 'key = value': " + line);
    }
    if (sections.empty()) {
      fail(origin, line_no, "key/value outside any [section]");
    }
    const std::string key = trim(std::string_view(line).substr(0, eq));
    const std::string value = trim(std::string_view(line).substr(eq + 1));
    if (key.empty()) fail(origin, line_no, "empty key");
    auto [_, inserted] = sections.back().values.emplace(key, value);
    if (!inserted) {
      fail(origin, line_no,
           "duplicate key '" + key + "' in [" + sections.back().name + "]");
    }
  }
  return sections;
}

void check_known_keys(const Section& sec,
                      std::initializer_list<std::string_view> known,
                      const std::string& origin) {
  for (const auto& [key, value] : sec.values) {
    (void)value;
    if (std::find(known.begin(), known.end(), key) != known.end()) continue;
    std::string list;
    for (const std::string_view k : known) {
      list += list.empty() ? "" : ", ";
      list += k;
    }
    fail(origin, sec.line,
         "unknown key '" + key + "' in [" + sec.name + "] (known: " + list +
             ")");
  }
}

TopologySpec parse_topology(std::string_view text, const std::string& origin) {
  TopologySpec topo;
  const auto sections = parse_sections(text, origin);
  std::size_t n_clusters = 0;
  // Pass 1: the [federation] section fixes the cluster count.
  for (const auto& sec : sections) {
    if (sec.name == "federation") {
      check_known_keys(sec, {"clusters"}, origin);
      n_clusters = static_cast<std::size_t>(need_uint(sec, "clusters", origin));
      if (n_clusters == 0) fail(origin, sec.line, "clusters must be >= 1");
    }
  }
  if (n_clusters == 0) {
    throw ParseError(origin + ": missing [federation] section");
  }
  topo.clusters.resize(n_clusters);
  topo.inter.assign(n_clusters, std::vector<LinkSpec>(n_clusters));
  std::vector<bool> seen_cluster(n_clusters, false);
  // Pass 2: clusters and links.
  for (const auto& sec : sections) {
    if (sec.name == "federation") continue;
    if (sec.name == "cluster") {
      check_known_keys(sec,
                       {"nodes", "latency", "bandwidth", "storage",
                        "storage_latency", "storage_write_bandwidth",
                        "storage_read_bandwidth", "stripe_width",
                        "incremental"},
                       origin);
      const std::size_t i = cluster_index_arg(sec, topo, origin);
      seen_cluster[i] = true;
      auto& c = topo.clusters[i];
      c.nodes = static_cast<std::uint32_t>(need_uint(sec, "nodes", origin));
      c.san.latency = need_duration(sec, "latency", origin);
      c.san.bytes_per_sec = need_bandwidth(sec, "bandwidth", origin);
      // Optional checkpoint-storage model; absent keys keep the defaults.
      if (sec.values.count("storage")) {
        auto& st = c.storage;
        st.kind = need_storage_kind(sec, "storage", origin);
        st.latency =
            opt(sec, "storage_latency", st.latency, need_duration, origin);
        st.write_bytes_per_sec = opt(sec, "storage_write_bandwidth",
                                     st.write_bytes_per_sec, need_bandwidth,
                                     origin);
        st.read_bytes_per_sec = opt(sec, "storage_read_bandwidth",
                                    st.read_bytes_per_sec, need_bandwidth,
                                    origin);
        st.stripe_width =
            opt(sec, "stripe_width", st.stripe_width, need_uint, origin);
        st.incremental = opt(sec, "incremental",
                             std::uint64_t{st.incremental}, need_uint,
                             origin) != 0;
      }
    } else if (sec.name == "link") {
      if (sec.args.size() != 2) {
        fail(origin, sec.line, "[link] needs two cluster indices");
      }
      check_known_keys(sec, {"latency", "bandwidth"}, origin);
      const auto a = parse_uint(sec.args[0]);
      const auto b = parse_uint(sec.args[1]);
      if (!a || !b || *a >= n_clusters || *b >= n_clusters || *a == *b) {
        fail(origin, sec.line, "bad [link] cluster indices");
      }
      LinkSpec link;
      link.latency = need_duration(sec, "latency", origin);
      link.bytes_per_sec = need_bandwidth(sec, "bandwidth", origin);
      topo.inter[*a][*b] = link;
      topo.inter[*b][*a] = link;
    } else {
      fail(origin, sec.line, "unknown section [" + sec.name + "] in topology");
    }
  }
  for (std::size_t i = 0; i < n_clusters; ++i) {
    if (!seen_cluster[i]) {
      throw ParseError(origin + ": missing [cluster " + std::to_string(i) + "]");
    }
  }
  topo.validate();
  return topo;
}

ApplicationSpec parse_application(std::string_view text,
                                  const TopologySpec& topo,
                                  const std::string& origin) {
  ApplicationSpec app;
  const std::size_t n = topo.cluster_count();
  app.clusters.resize(n);
  for (auto& c : app.clusters) c.traffic.assign(n, 0.0);
  const auto sections = parse_sections(text, origin);
  bool saw_app = false;
  for (const auto& sec : sections) {
    if (sec.name == "application") {
      check_known_keys(sec, {"total_time", "state_size"}, origin);
      saw_app = true;
      app.total_time = need_duration(sec, "total_time", origin);
      app.state_bytes =
          opt(sec, "state_size", app.state_bytes, need_bytes, origin);
    } else if (sec.name == "cluster") {
      check_known_keys(sec, {"mean_compute", "message_size"}, origin);
      const std::size_t i = cluster_index_arg(sec, topo, origin);
      auto& c = app.clusters[i];
      c.mean_compute = need_duration(sec, "mean_compute", origin);
      c.message_bytes =
          opt(sec, "message_size", c.message_bytes, need_bytes, origin);
    } else if (sec.name == "traffic") {
      const std::size_t i = cluster_index_arg(sec, topo, origin);
      for (const auto& [key, value] : sec.values) {
        const auto j = parse_uint(key);
        if (!j || *j >= n) fail(origin, sec.line, "bad traffic column: " + key);
        const auto w = parse_double(value);
        if (!w || *w < 0) fail(origin, sec.line, "bad traffic weight: " + value);
        app.clusters[i].traffic[static_cast<std::size_t>(*j)] = *w;
      }
    } else {
      fail(origin, sec.line, "unknown section [" + sec.name + "] in application");
    }
  }
  if (!saw_app) throw ParseError(origin + ": missing [application] section");
  app.validate(topo);
  return app;
}

fault::Campaign parse_campaign(std::string_view text, const TopologySpec& topo,
                               const std::string& origin) {
  fault::Campaign plan;
  const auto opt_duration = [&origin](const Section& sec, const std::string& key,
                                      SimTime def) {
    return opt(sec, key, def, need_duration, origin);
  };
  const auto opt_uint = [&origin](const Section& sec, const std::string& key,
                                  std::uint32_t def) {
    return opt(sec, key, def, need_uint, origin);
  };
  for (const auto& sec : parse_sections(text, origin)) {
    if (sec.name == "kill") {
      check_known_keys(sec, {"at", "node"}, origin);
      fault::KillSpec k;
      k.at = need_duration(sec, "at", origin);
      k.victim = NodeId{static_cast<std::uint32_t>(need_uint(sec, "node", origin))};
      plan.kills.push_back(k);
    } else if (sec.name == "stream") {
      check_known_keys(sec, {"mtbf", "cluster", "start", "stop"}, origin);
      fault::StreamSpec s;
      s.mtbf = need_duration(sec, "mtbf", origin);
      if (sec.values.count("cluster")) {
        s.cluster = ClusterId{opt_uint(sec, "cluster", 0)};
      }
      s.start = opt_duration(sec, "start", SimTime::zero());
      s.stop = opt_duration(sec, "stop", SimTime::infinity());
      plan.streams.push_back(s);
    } else if (sec.name == "burst") {
      check_known_keys(
          sec, {"cluster", "kills", "at", "window", "first_victim"}, origin);
      fault::BurstSpec b;
      b.cluster = ClusterId{
          static_cast<std::uint32_t>(need_uint(sec, "cluster", origin))};
      b.kills = static_cast<std::uint32_t>(need_uint(sec, "kills", origin));
      b.at = need_duration(sec, "at", origin);
      b.window = need_duration(sec, "window", origin);
      b.first_victim = opt_uint(sec, "first_victim", 0);
      plan.bursts.push_back(b);
    } else if (sec.name == "repeat") {
      check_known_keys(sec, {"node", "times", "first", "gap"}, origin);
      fault::RepeatSpec r;
      r.victim = NodeId{static_cast<std::uint32_t>(need_uint(sec, "node", origin))};
      r.times = static_cast<std::uint32_t>(need_uint(sec, "times", origin));
      r.first = need_duration(sec, "first", origin);
      r.gap = opt_duration(sec, "gap", SimTime::zero());
      plan.repeats.push_back(r);
    } else if (sec.name == "phase_trigger") {
      check_known_keys(sec,
                       {"cluster", "phase", "node", "after_acks", "occurrence",
                        "not_before"},
                       origin);
      fault::PhaseTriggerSpec t;
      t.cluster = ClusterId{
          static_cast<std::uint32_t>(need_uint(sec, "cluster", origin))};
      const auto phase = fault::parse_phase(need(sec, "phase", origin));
      if (!phase) {
        fail(origin, sec.line,
             "bad phase '" + sec.values.at("phase") +
                 "' (known: phase1_acks, commit)");
      }
      t.phase = *phase;
      t.victim = NodeId{static_cast<std::uint32_t>(need_uint(sec, "node", origin))};
      t.after_acks = opt_uint(sec, "after_acks", 1);
      t.occurrence = opt_uint(sec, "occurrence", 1);
      t.not_before = opt_duration(sec, "not_before", SimTime::zero());
      plan.phase_triggers.push_back(t);
    } else {
      fail(origin, sec.line, "unknown section [" + sec.name + "] in campaign");
    }
  }
  try {
    plan.validate(topo);
  } catch (const CheckFailure& e) {
    throw ParseError(origin + ": " + e.what());
  }
  return plan;
}

TimersSpec parse_timers(std::string_view text, const TopologySpec& topo,
                        const std::string& origin) {
  TimersSpec timers;
  timers.clusters.resize(topo.cluster_count());
  const auto sections = parse_sections(text, origin);
  for (const auto& sec : sections) {
    if (sec.name == "timers") {
      check_known_keys(sec, {"gc_period", "detection_delay"}, origin);
      timers.gc_period =
          opt(sec, "gc_period", timers.gc_period, need_duration, origin);
      timers.detection_delay = opt(sec, "detection_delay",
                                   timers.detection_delay, need_duration,
                                   origin);
    } else if (sec.name == "cluster") {
      check_known_keys(sec, {"clc_period"}, origin);
      const std::size_t i = cluster_index_arg(sec, topo, origin);
      timers.clusters[i].clc_period = need_duration(sec, "clc_period", origin);
    } else {
      fail(origin, sec.line, "unknown section [" + sec.name + "] in timers");
    }
  }
  timers.validate(topo);
  return timers;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ParseError("cannot open file: " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

RunSpec load_run_spec(const std::string& topology_path,
                      const std::string& application_path,
                      const std::string& timers_path) {
  RunSpec spec;
  spec.topology = parse_topology(read_file(topology_path), topology_path);
  spec.application = parse_application(read_file(application_path),
                                       spec.topology, application_path);
  spec.timers =
      parse_timers(read_file(timers_path), spec.topology, timers_path);
  spec.validate();
  return spec;
}

}  // namespace hc3i::config
