#include "batch/sweep.hpp"

#include <utility>

#include "config/parser.hpp"
#include "config/presets.hpp"
#include "util/check.hpp"
#include "util/quantity.hpp"

namespace hc3i::batch {

namespace {

/// Campaign for one (campaign point, topology) cell, or null for kNone.
/// Reference kinds scale with the topology; explicit plans pass through.
std::shared_ptr<const fault::Campaign> materialize(
    const CampaignPoint& point, const config::RunSpec& spec) {
  switch (point.kind) {
    case CampaignPoint::Kind::kNone:
      return nullptr;
    case CampaignPoint::Kind::kReference:
      return std::make_shared<fault::Campaign>(
          fault::reference_scale_campaign(spec.topology.cluster_count(),
                                          spec.topology.clusters[0].nodes,
                                          spec.application.total_time));
    case CampaignPoint::Kind::kOverlap:
      return std::make_shared<fault::Campaign>(
          fault::reference_overlap_campaign(spec.topology.cluster_count(),
                                            spec.topology.clusters[0].nodes,
                                            spec.application.total_time));
    case CampaignPoint::Kind::kExplicit:
      return point.plan;
  }
  HC3I_UNREACHABLE("bad CampaignPoint::Kind");
}

/// Spec for one (topology, storage) cell: the shared base when the point is
/// inactive, otherwise a derived copy with the cost model applied to every
/// cluster and the interval / state-size overrides folded in.
std::shared_ptr<const config::RunSpec> apply_storage(
    const std::shared_ptr<const config::RunSpec>& base,
    const StoragePoint& point) {
  if (!point.active()) return base;
  auto spec = std::make_shared<config::RunSpec>(*base);
  for (auto& c : spec->topology.clusters) c.storage = point.storage;
  if (point.clc_period.ns > 0) {
    for (auto& t : spec->timers.clusters) {
      // Clusters pinned to never self-checkpoint stay pinned.
      if (!t.clc_period.is_infinite()) t.clc_period = point.clc_period;
    }
  }
  if (point.state_bytes > 0) spec->application.state_bytes = point.state_bytes;
  spec->validate();
  return spec;
}

}  // namespace

void SweepSpec::validate() const {
  HC3I_CHECK(!topologies.empty(), "sweep: no topology points");
  HC3I_CHECK(!campaigns.empty(), "sweep: no campaign points");
  HC3I_CHECK(!seeds.empty(), "sweep: no seeds");
  for (const TopologyPoint& t : topologies) {
    HC3I_CHECK(!t.name.empty(), "sweep: unnamed topology point");
    HC3I_CHECK(t.spec != nullptr,
               "sweep: topology point '" + t.name + "' has no spec");
    t.spec->validate();
  }
  for (const CampaignPoint& c : campaigns) {
    HC3I_CHECK(!c.name.empty(), "sweep: unnamed campaign point");
    if (c.kind == CampaignPoint::Kind::kExplicit) {
      HC3I_CHECK(c.plan != nullptr,
                 "sweep: explicit campaign '" + c.name + "' has no plan");
    }
    for (const TopologyPoint& t : topologies) {
      if (c.kind == CampaignPoint::Kind::kOverlap) {
        HC3I_CHECK(t.spec->topology.cluster_count() >= 4,
                   "sweep: campaign '" + c.name +
                       "' (overlap) needs >= 4 clusters; topology '" +
                       t.name + "' has fewer");
      }
      if (c.kind == CampaignPoint::Kind::kReference) {
        HC3I_CHECK(t.spec->topology.cluster_count() >= 2 &&
                       t.spec->topology.clusters[0].nodes >= 4,
                   "sweep: campaign '" + c.name +
                       "' (reference) needs >= 2 clusters of >= 4 nodes; "
                       "topology '" + t.name + "' is smaller");
      }
      if (c.plan) c.plan->validate(t.spec->topology);
    }
  }
  for (const StoragePoint& s : storage) {
    HC3I_CHECK(!s.name.empty() || !s.active(),
               "sweep: active storage point must be named");
    HC3I_CHECK(s.clc_period.ns >= 0 && !s.clc_period.is_infinite(),
               "sweep: storage point '" + s.name +
                   "' interval override must be finite and >= 0");
  }
}

std::string RunCase::name() const {
  return topology + "/" + campaign +
         (storage.empty() ? "" : "/" + storage) + " s=" +
         std::to_string(seed);
}

driver::RunOptions RunCase::options() const {
  driver::RunOptions opts;
  opts.spec = *spec;  // per-run copy; the shared original stays read-only
  opts.seed = seed;
  opts.protocol = protocol;
  if (plan) opts.campaign = *plan;
  return opts;
}

std::vector<RunCase> expand(const SweepSpec& sweep) {
  sweep.validate();
  // An empty storage axis is the implicit off point — same cases, labels
  // and shared specs as before the axis existed.
  static const std::vector<StoragePoint> kOffOnly{StoragePoint{}};
  const auto& storage_axis =
      sweep.storage.empty() ? kOffOnly : sweep.storage;
  std::vector<RunCase> cases;
  cases.reserve(sweep.runs());
  for (const TopologyPoint& topo : sweep.topologies) {
    // One derived spec per (topology, storage) cell, shared by its runs.
    std::vector<std::shared_ptr<const config::RunSpec>> specs;
    specs.reserve(storage_axis.size());
    for (const StoragePoint& sp : storage_axis) {
      specs.push_back(apply_storage(topo.spec, sp));
    }
    for (const CampaignPoint& camp : sweep.campaigns) {
      // One materialised plan per grid cell, shared by that cell's seeds.
      const auto plan = materialize(camp, *topo.spec);
      for (std::size_t si = 0; si < storage_axis.size(); ++si) {
        for (const std::uint64_t seed : sweep.seeds) {
          RunCase rc;
          rc.index = cases.size();
          rc.topology = topo.name;
          rc.campaign = camp.name;
          rc.storage = storage_axis[si].active() ? storage_axis[si].name : "";
          rc.seed = seed;
          rc.protocol = sweep.protocol;
          rc.spec = specs[si];
          rc.plan = plan;
          cases.push_back(std::move(rc));
        }
      }
    }
  }
  return cases;
}

TopologyPoint scale_topology(std::size_t clusters, std::uint32_t nodes,
                             SimTime total) {
  TopologyPoint point;
  point.name = "scale_" + std::to_string(clusters) + "x" +
               std::to_string(nodes);
  point.spec = std::make_shared<const config::RunSpec>(
      config::scale_federation_spec(clusters, nodes, total));
  return point;
}

TopologyPoint small_topology(std::size_t clusters, std::uint32_t nodes) {
  TopologyPoint point;
  point.name = "small_" + std::to_string(clusters) + "x" +
               std::to_string(nodes);
  point.spec = std::make_shared<const config::RunSpec>(
      config::small_test_spec(clusters, nodes));
  return point;
}

CampaignPoint no_campaign() {
  return CampaignPoint{"none", CampaignPoint::Kind::kNone, nullptr};
}

CampaignPoint reference_campaign() {
  return CampaignPoint{"faulty", CampaignPoint::Kind::kReference, nullptr};
}

CampaignPoint overlap_campaign() {
  return CampaignPoint{"overlap", CampaignPoint::Kind::kOverlap, nullptr};
}

CampaignPoint explicit_campaign(std::string name, fault::Campaign plan) {
  return CampaignPoint{std::move(name), CampaignPoint::Kind::kExplicit,
                       std::make_shared<const fault::Campaign>(
                           std::move(plan))};
}

StoragePoint storage_point(std::string name, config::StorageSpec storage,
                           SimTime clc_period, std::uint64_t state_bytes) {
  StoragePoint point;
  point.name = std::move(name);
  point.storage = storage;
  point.clc_period = clc_period;
  point.state_bytes = state_bytes;
  return point;
}

namespace {

using config::need_bandwidth;
using config::need_bytes;
using config::need_duration;
using config::need_storage_kind;
using config::need_uint;
using config::opt;
using config::ParseError;
using config::Section;

[[noreturn]] void fail(const std::string& origin, int line,
                       const std::string& what) {
  throw ParseError(origin + ":" + std::to_string(line) + ": " + what);
}

/// Optional integer key of `sec`, `def` when absent.
std::uint64_t want_uint(const Section& sec, const std::string& origin,
                        const std::string& key, std::uint64_t def) {
  return opt(sec, key, def, need_uint, origin);
}

/// Split "a,b,c" into its non-empty tokens.
std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string tok = text.substr(
        pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) out.push_back(tok);
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

}  // namespace

CampaignPoint parse_campaign_token(const std::string& token,
                                   const std::string& origin) {
  if (token == "none") return no_campaign();
  if (token == "faulty") return reference_campaign();
  if (token == "overlap") return overlap_campaign();
  if (token.starts_with("mtbf:")) {
    const auto mtbf = parse_duration(token.substr(5));
    if (!mtbf || mtbf->is_infinite() || mtbf->ns <= 0) {
      throw ParseError(origin + ": mtbf:<duration> wants a positive finite "
                                "duration, got '" + token + "'");
    }
    fault::StreamSpec stream;  // federation-wide Poisson failures
    stream.mtbf = *mtbf;
    fault::Campaign plan;
    plan.streams.push_back(stream);
    return explicit_campaign(token, std::move(plan));
  }
  throw ParseError(origin + ": unknown campaign '" + token +
                   "' (known: none|faulty|overlap|mtbf:<duration>)");
}

std::vector<std::uint64_t> parse_seed_list(const std::string& text,
                                           const std::string& origin) {
  std::vector<std::uint64_t> seeds;
  const std::size_t dots = text.find("..");
  if (dots != std::string::npos) {
    const auto lo = parse_uint(text.substr(0, dots));
    const auto hi = parse_uint(text.substr(dots + 2));
    if (!lo || !hi || *hi < *lo) {
      throw ParseError(origin + ": bad seed range '" + text + "'");
    }
    for (std::uint64_t s = *lo; s <= *hi; ++s) seeds.push_back(s);
    return seeds;
  }
  for (const std::string& tok : split_list(text)) {
    const auto v = parse_uint(tok);
    if (!v) throw ParseError(origin + ": bad seed '" + tok + "'");
    seeds.push_back(*v);
  }
  if (seeds.empty()) {
    throw ParseError(origin + ": empty seed list '" + text + "'");
  }
  return seeds;
}

SweepSpec parse_sweep(std::string_view text, const std::string& origin) {
  SweepSpec sweep;
  bool saw_sweep = false;
  for (const Section& sec : config::parse_sections(text, origin)) {
    if (sec.name == "sweep") {
      if (saw_sweep) fail(origin, sec.line, "duplicate [sweep] section");
      saw_sweep = true;
      config::check_known_keys(sec, {"seeds", "protocol"}, origin);
      if (const auto it = sec.values.find("seeds"); it != sec.values.end()) {
        sweep.seeds = parse_seed_list(
            it->second, origin + ":" + std::to_string(sec.line));
      }
      if (const auto it = sec.values.find("protocol");
          it != sec.values.end()) {
        const auto protocol = driver::parse_protocol(it->second);
        if (!protocol) {
          fail(origin, sec.line, "unknown protocol '" + it->second + "'");
        }
        sweep.protocol = *protocol;
      }
    } else if (sec.name == "topology") {
      if (sec.args.size() != 1) {
        fail(origin, sec.line, "[topology] wants exactly one name argument");
      }
      config::check_known_keys(sec, {"preset", "clusters", "nodes", "minutes"},
                               origin);
      const std::string preset =
          sec.values.count("preset") ? sec.values.at("preset") : "scale";
      const auto clusters =
          static_cast<std::size_t>(want_uint(sec, origin, "clusters", 2));
      const auto nodes =
          static_cast<std::uint32_t>(want_uint(sec, origin, "nodes", 100));
      if (clusters < 1 || nodes < 1) {
        fail(origin, sec.line, "clusters and nodes must be >= 1");
      }
      TopologyPoint point;
      if (preset == "scale") {
        point = scale_topology(
            clusters, nodes,
            minutes(static_cast<std::int64_t>(
                want_uint(sec, origin, "minutes", 30))));
      } else if (preset == "small") {
        point = small_topology(clusters, nodes);
        if (sec.values.count("minutes")) {
          auto spec = std::make_shared<config::RunSpec>(*point.spec);
          spec->application.total_time = minutes(static_cast<std::int64_t>(
              want_uint(sec, origin, "minutes", 30)));
          point.spec = std::move(spec);
        }
      } else {
        fail(origin, sec.line, "unknown topology preset '" + preset +
                                   "' (known: scale, small)");
      }
      point.name = sec.args[0];
      sweep.topologies.push_back(std::move(point));
    } else if (sec.name == "campaign") {
      if (sec.args.size() != 1) {
        fail(origin, sec.line, "[campaign] wants exactly one name argument");
      }
      config::check_known_keys(sec, {"kind"}, origin);
      CampaignPoint point =
          parse_campaign_token(config::need(sec, "kind", origin),
                               origin + ":" + std::to_string(sec.line));
      point.name = sec.args[0];
      sweep.campaigns.push_back(std::move(point));
    } else if (sec.name == "storage") {
      if (sec.args.size() != 1) {
        fail(origin, sec.line, "[storage] wants exactly one name argument");
      }
      config::check_known_keys(
          sec,
          {"kind", "latency", "write_bandwidth", "read_bandwidth",
           "stripe_width", "incremental", "interval", "state_size"},
          origin);
      StoragePoint point;
      point.name = sec.args[0];
      config::StorageSpec& st = point.storage;
      st.kind = opt(sec, "kind", st.kind, need_storage_kind, origin);
      st.latency = opt(sec, "latency", st.latency, need_duration, origin);
      st.write_bytes_per_sec = opt(sec, "write_bandwidth",
                                   st.write_bytes_per_sec, need_bandwidth,
                                   origin);
      st.read_bytes_per_sec = opt(sec, "read_bandwidth", st.read_bytes_per_sec,
                                  need_bandwidth, origin);
      st.stripe_width = static_cast<std::uint32_t>(
          want_uint(sec, origin, "stripe_width", st.stripe_width));
      st.incremental =
          want_uint(sec, origin, "incremental", st.incremental) != 0;
      point.clc_period =
          opt(sec, "interval", point.clc_period, need_duration, origin);
      point.state_bytes =
          opt(sec, "state_size", point.state_bytes, need_bytes, origin);
      sweep.storage.push_back(std::move(point));
    } else {
      fail(origin, sec.line, "unknown section [" + sec.name +
                                 "] (known: sweep, topology, campaign, "
                                 "storage)");
    }
  }
  if (sweep.seeds.empty()) sweep.seeds = {1};
  if (sweep.campaigns.empty()) sweep.campaigns = {no_campaign()};
  if (sweep.topologies.empty()) {
    throw ParseError(origin + ": sweep defines no [topology] points");
  }
  try {
    sweep.validate();
  } catch (const CheckFailure& e) {
    throw ParseError(origin + ": " + e.what());
  }
  return sweep;
}

}  // namespace hc3i::batch
