#pragma once

// Parameter sweeps as data: a topology x campaign x seed grid.
//
// The paper evaluates HC3I at a handful of hand-picked configurations; its
// real claims (checkpoint-interval economics, recovery cost vs cluster
// count) only become visible over grids of runs at identical seeds — the
// CIC retrospective's methodology (PAPERS.md).  A SweepSpec is the
// declarative form of such a grid: named topology points (full RunSpecs,
// shared read-only across shards), named campaign points (a fault-plan
// *kind*, materialised per topology since the reference campaigns scale
// with the federation), and a seed list.  expand() produces the cross
// product as RunCases that batch::Runner shards across worker threads.
//
// Everything in a RunCase that two shards could touch concurrently is
// immutable and held behind shared_ptr<const>: the specs and the
// materialised campaigns.  Mutable state (registries, pools, RNG streams,
// COW refcounts) is created per run inside the worker that executes it —
// see driver/sim_context.hpp for the ownership rule.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "config/spec.hpp"
#include "driver/run.hpp"
#include "fault/campaign.hpp"
#include "util/time.hpp"

namespace hc3i::batch {

/// One topology-axis point: a named, immutable RunSpec shared read-only by
/// every shard that runs it.
struct TopologyPoint {
  std::string name;
  std::shared_ptr<const config::RunSpec> spec;
};

/// One campaign-axis point.  Reference kinds are materialised per topology
/// at expand() time (their shape scales with cluster count and horizon);
/// kExplicit carries a user-supplied plan validated against each topology.
struct CampaignPoint {
  enum class Kind : std::uint8_t {
    kNone,       ///< failure-free
    kReference,  ///< fault::reference_scale_campaign
    kOverlap,    ///< fault::reference_overlap_campaign (needs >= 4 clusters)
    kExplicit,   ///< `plan` as given
  };
  std::string name;
  Kind kind{Kind::kNone};
  std::shared_ptr<const fault::Campaign> plan;  ///< kExplicit only
};

/// One storage-axis point: a checkpoint-storage cost model plus optional
/// overrides of the two knobs the optimal-interval question couples it to —
/// the CLC period (checkpoint interval) and the process state size
/// (checkpoint size).  Zero overrides keep the topology point's values.
/// An inactive point (the default) is the implicit "storage off" cell:
/// RunCase labels and reports stay exactly as before the axis existed.
struct StoragePoint {
  std::string name;                      ///< "" only for the implicit off point
  config::StorageSpec storage;           ///< kNone = costs stay unmodelled
  SimTime clc_period{SimTime::zero()};   ///< 0 = keep the topology's timers
  std::uint64_t state_bytes{0};          ///< 0 = keep the spec's state size

  bool active() const {
    return storage.enabled() || clc_period.ns > 0 || state_bytes > 0;
  }
};

/// The declarative grid.
struct SweepSpec {
  std::vector<TopologyPoint> topologies;
  std::vector<CampaignPoint> campaigns;
  /// Storage axis; empty means a single implicit storage-off point.
  std::vector<StoragePoint> storage;
  std::vector<std::uint64_t> seeds;
  driver::ProtocolKind protocol{driver::ProtocolKind::kHc3i};

  /// Grid cardinality (runs the sweep will execute).
  std::size_t runs() const {
    return topologies.size() * campaigns.size() *
           (storage.empty() ? 1 : storage.size()) * seeds.size();
  }

  /// Structural validation: non-empty axes, named points, specs present and
  /// self-consistent, explicit campaigns valid against every topology.
  /// Throws CheckFailure on the first problem.
  void validate() const;
};

/// One expanded grid cell, ready to execute on any shard.
struct RunCase {
  std::size_t index{0};  ///< dense grid index (aggregation order)
  std::string topology;
  std::string campaign;
  std::string storage;  ///< storage-point name; "" = storage off
  std::uint64_t seed{1};
  driver::ProtocolKind protocol{driver::ProtocolKind::kHc3i};
  std::shared_ptr<const config::RunSpec> spec;
  std::shared_ptr<const fault::Campaign> plan;  ///< null = failure-free

  /// "topology/campaign s=seed" — row label in reports; an active storage
  /// point appends "/storage" after the campaign.
  std::string name() const;

  /// Materialise driver options (copies the spec into the per-run options,
  /// exactly like a solo run would; the shared original stays untouched).
  driver::RunOptions options() const;
};

/// Cross-product expansion in grid order: topology-major, then campaign,
/// then seed.  Validates the sweep first.
std::vector<RunCase> expand(const SweepSpec& sweep);

// --- axis-point builders ----------------------------------------------------

/// Scale-out ring topology point (config::scale_federation_spec).
TopologyPoint scale_topology(std::size_t clusters, std::uint32_t nodes,
                             SimTime total);

/// Small chatty test topology point (config::small_test_spec).
TopologyPoint small_topology(std::size_t clusters, std::uint32_t nodes);

/// Named campaign-kind points.
CampaignPoint no_campaign();
CampaignPoint reference_campaign();
CampaignPoint overlap_campaign();
/// Explicit plan under `name`.
CampaignPoint explicit_campaign(std::string name, fault::Campaign plan);

/// One campaign-axis token, a sweep file's `[campaign] kind`: none
/// (failure-free), faulty (the reference campaign), overlap (concurrent
/// per-cluster recoveries; needs >= 4 clusters) or mtbf:<duration> (one
/// federation-wide failure stream of that MTBF, named after the token).
/// Throws config::ParseError, prefixed with `origin`, on anything else.
CampaignPoint parse_campaign_token(const std::string& token,
                                   const std::string& origin = "<campaign>");

/// Storage-axis point: cost model plus optional interval / state-size
/// overrides (zero keeps the topology point's values).
StoragePoint storage_point(std::string name, config::StorageSpec storage,
                           SimTime clc_period = SimTime::zero(),
                           std::uint64_t state_bytes = 0);

// --- the sweep config kind --------------------------------------------------

/// Parse a sweep file (the config kind next to topology / application /
/// timers / campaign, and the sweep CLI's one input; same INI dialect via
/// config::parse_sections; the committed grids are configs/sweep/).
/// Throws config::ParseError with file/line context on any problem.
///
///   [sweep]               protocol = hc3i     seeds = 1..5
///   [topology small2]     preset = small      clusters = 2   nodes = 4
///   [topology ring]       preset = scale      clusters = 10  nodes = 100
///                         minutes = 30
///   [campaign none]       kind = none
///   [campaign faulty]     kind = faulty
///   [campaign overlap]    kind = overlap
///   [campaign storm]      kind = mtbf:2min       (parse_campaign_token)
///   [storage striped]     kind = striped-remote   write_bandwidth = 200MB/s
///                         interval = 5m           state_size = 8MiB
///
/// `seeds` accepts an inclusive range "lo..hi" or a comma list "1,3,9".
/// [storage] keys: kind (local-disk | striped-remote), latency,
/// write_bandwidth, read_bandwidth, stripe_width, incremental (0/1),
/// interval (CLC-period override), state_size (per-process state override).
SweepSpec parse_sweep(std::string_view text,
                      const std::string& origin = "<sweep>");

/// The seed-list syntax on its own ("lo..hi" or "a,b,c"), the sweep file's
/// `seeds` key.  Throws config::ParseError on malformed input.
std::vector<std::uint64_t> parse_seed_list(const std::string& text,
                                           const std::string& origin =
                                               "<seeds>");

}  // namespace hc3i::batch
