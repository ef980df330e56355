#include "config/writer.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>

namespace hc3i::config {

std::string duration_text(SimTime t) {
  if (t.is_infinite()) return "inf";
  const std::int64_t ns = t.ns;
  char buf[64];
  // Choose the largest unit that represents the value exactly.
  if (ns % 3'600'000'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%lldh",
                  static_cast<long long>(ns / 3'600'000'000'000));
  } else if (ns % 60'000'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%lldmin",
                  static_cast<long long>(ns / 60'000'000'000));
  } else if (ns % 1'000'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%llds",
                  static_cast<long long>(ns / 1'000'000'000));
  } else if (ns % 1'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%lldms",
                  static_cast<long long>(ns / 1'000'000));
  } else if (ns % 1'000 == 0) {
    std::snprintf(buf, sizeof buf, "%lldus", static_cast<long long>(ns / 1'000));
  } else {
    std::snprintf(buf, sizeof buf, "%lldns", static_cast<long long>(ns));
  }
  return buf;
}

std::string bandwidth_text(double bytes_per_sec) {
  const double bits = bytes_per_sec * 8.0;
  char buf[64];
  if (bits >= 1e9 && std::fmod(bits, 1e9) == 0.0) {
    std::snprintf(buf, sizeof buf, "%.0fGb/s", bits / 1e9);
  } else if (bits >= 1e6 && std::fmod(bits, 1e6) == 0.0) {
    std::snprintf(buf, sizeof buf, "%.0fMb/s", bits / 1e6);
  } else if (bits >= 1e3 && std::fmod(bits, 1e3) == 0.0) {
    std::snprintf(buf, sizeof buf, "%.0fKb/s", bits / 1e3);
  } else {
    std::snprintf(buf, sizeof buf, "%.0fb/s", bits);
  }
  return buf;
}

std::string bytes_text(std::uint64_t bytes) {
  char buf[64];
  const std::uint64_t kb = 1024, mb = kb * 1024, gb = mb * 1024;
  if (bytes >= gb && bytes % gb == 0) {
    std::snprintf(buf, sizeof buf, "%lluGB",
                  static_cast<unsigned long long>(bytes / gb));
  } else if (bytes >= mb && bytes % mb == 0) {
    std::snprintf(buf, sizeof buf, "%lluMB",
                  static_cast<unsigned long long>(bytes / mb));
  } else if (bytes >= kb && bytes % kb == 0) {
    std::snprintf(buf, sizeof buf, "%lluKB",
                  static_cast<unsigned long long>(bytes / kb));
  } else {
    std::snprintf(buf, sizeof buf, "%lluB",
                  static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string write_topology(const TopologySpec& topo) {
  std::ostringstream os;
  os << "# HC3I topology file\n";
  os << "[federation]\n";
  os << "clusters = " << topo.cluster_count() << "\n";
  os << "mtbf = " << duration_text(topo.mtbf) << "\n";
  for (std::size_t i = 0; i < topo.cluster_count(); ++i) {
    const auto& c = topo.clusters[i];
    os << "\n[cluster " << i << "]\n";
    os << "nodes = " << c.nodes << "\n";
    os << "latency = " << duration_text(c.san.latency) << "\n";
    os << "bandwidth = " << bandwidth_text(c.san.bytes_per_sec) << "\n";
    // Storage keys only when modelled, so pre-storage files round-trip
    // byte-identically.
    if (c.storage.enabled()) {
      const auto& st = c.storage;
      os << "storage = "
         << (st.kind == StorageSpec::Kind::kLocalDisk ? "local-disk"
                                                      : "striped-remote")
         << "\n";
      os << "storage_latency = " << duration_text(st.latency) << "\n";
      os << "storage_write_bandwidth = "
         << bandwidth_text(st.write_bytes_per_sec) << "\n";
      os << "storage_read_bandwidth = "
         << bandwidth_text(st.read_bytes_per_sec) << "\n";
      if (st.kind == StorageSpec::Kind::kStripedRemote) {
        os << "stripe_width = " << st.stripe_width << "\n";
      }
      os << "incremental = " << (st.incremental ? 1 : 0) << "\n";
    }
  }
  // Triangular matrix of inter-cluster links (paper §5.1).
  for (std::size_t i = 0; i < topo.cluster_count(); ++i) {
    for (std::size_t j = i + 1; j < topo.cluster_count(); ++j) {
      const auto& l = topo.inter[i][j];
      os << "\n[link " << i << " " << j << "]\n";
      os << "latency = " << duration_text(l.latency) << "\n";
      os << "bandwidth = " << bandwidth_text(l.bytes_per_sec) << "\n";
    }
  }
  return os.str();
}

std::string write_application(const ApplicationSpec& app) {
  std::ostringstream os;
  os << "# HC3I application file\n";
  os << "[application]\n";
  os << "total_time = " << duration_text(app.total_time) << "\n";
  os << "state_size = " << bytes_text(app.state_bytes) << "\n";
  for (std::size_t i = 0; i < app.clusters.size(); ++i) {
    const auto& c = app.clusters[i];
    os << "\n[cluster " << i << "]\n";
    os << "mean_compute = " << duration_text(c.mean_compute) << "\n";
    os << "message_size = " << bytes_text(c.message_bytes) << "\n";
    os << "\n[traffic " << i << "]\n";
    for (std::size_t j = 0; j < c.traffic.size(); ++j) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.17g", c.traffic[j]);
      os << j << " = " << buf << "\n";
    }
  }
  return os.str();
}

std::string write_campaign(const fault::Campaign& plan) {
  std::ostringstream os;
  os << "# HC3I fault campaign file\n";
  for (const auto& k : plan.kills) {
    os << "\n[kill]\n";
    os << "at = " << duration_text(k.at) << "\n";
    os << "node = " << k.victim.v << "\n";
  }
  for (const auto& s : plan.streams) {
    os << "\n[stream]\n";
    os << "mtbf = " << duration_text(s.mtbf) << "\n";
    if (s.cluster) os << "cluster = " << s.cluster->v << "\n";
    os << "start = " << duration_text(s.start) << "\n";
    os << "stop = " << duration_text(s.stop) << "\n";
  }
  for (const auto& b : plan.bursts) {
    os << "\n[burst]\n";
    os << "cluster = " << b.cluster.v << "\n";
    os << "kills = " << b.kills << "\n";
    os << "at = " << duration_text(b.at) << "\n";
    os << "window = " << duration_text(b.window) << "\n";
    os << "first_victim = " << b.first_victim << "\n";
  }
  for (const auto& r : plan.repeats) {
    os << "\n[repeat]\n";
    os << "node = " << r.victim.v << "\n";
    os << "times = " << r.times << "\n";
    os << "first = " << duration_text(r.first) << "\n";
    os << "gap = " << duration_text(r.gap) << "\n";
  }
  for (const auto& t : plan.phase_triggers) {
    os << "\n[phase_trigger]\n";
    os << "cluster = " << t.cluster.v << "\n";
    os << "phase = " << fault::to_string(t.phase) << "\n";
    os << "node = " << t.victim.v << "\n";
    os << "after_acks = " << t.after_acks << "\n";
    os << "occurrence = " << t.occurrence << "\n";
    os << "not_before = " << duration_text(t.not_before) << "\n";
  }
  return os.str();
}

std::string write_timers(const TimersSpec& timers) {
  std::ostringstream os;
  os << "# HC3I timers file\n";
  os << "[timers]\n";
  os << "gc_period = " << duration_text(timers.gc_period) << "\n";
  os << "detection_delay = " << duration_text(timers.detection_delay) << "\n";
  for (std::size_t i = 0; i < timers.clusters.size(); ++i) {
    os << "\n[cluster " << i << "]\n";
    os << "clc_period = " << duration_text(timers.clusters[i].clc_period)
       << "\n";
  }
  return os.str();
}

}  // namespace hc3i::config
