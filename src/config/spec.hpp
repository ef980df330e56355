#pragma once

// Typed configuration for a simulation run.
//
// The paper (§5.1): "The user has to provide three files: a topology file, an
// application file and a timer file."  These structs are the in-memory form;
// config/parser.* reads the text formats; the files under configs/ are
// hand-written and pinned to their presets by what they parse to.
//
//  * TopologySpec    — number of clusters, nodes per cluster, bandwidth and
//                      latency inside each cluster and between clusters
//                      (triangular matrix).
//  * ApplicationSpec — per-cluster mean computation time, communication
//                      pattern probabilities, message/state sizes and the
//                      application's total execution time.
//  * TimersSpec      — protocol timer delays per cluster (delay between two
//                      unforced CLCs, garbage-collection period, ...).

#include <cstdint>
#include <vector>

#include "util/check.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace hc3i::config {

/// Point-to-point link parameters.
struct LinkSpec {
  /// One-way propagation latency.
  SimTime latency{microseconds(10)};
  /// Serialisation rate in bytes per second (may be +inf for ideal links).
  double bytes_per_sec{10e6};
  bool operator==(const LinkSpec&) const = default;
};

/// Checkpoint-storage cost model of one cluster.  kNone (the default) keeps
/// the seed behaviour: captures and recovery reads cost nothing on the
/// simulated clock, so every pre-existing golden stays byte-identical.
struct StorageSpec {
  enum class Kind : std::uint8_t {
    kNone,           ///< storage not modelled (free captures, free reads)
    kLocalDisk,      ///< per-node local disk: each node writes/reads alone
    kStripedRemote,  ///< stdchk-style striped store aggregated over the SAN
  };
  Kind kind{Kind::kNone};
  /// Per-request latency (seek / open round-trip).
  SimTime latency{milliseconds(5)};
  /// Write bandwidth in bytes per second: per node for kLocalDisk, per
  /// stripe for kStripedRemote (aggregate = stripe_width x this).
  double write_bytes_per_sec{100.0e6};
  /// Read bandwidth in bytes per second (same per-node/per-stripe rule).
  double read_bytes_per_sec{100.0e6};
  /// Donor nodes each write is striped across (kStripedRemote only).
  std::uint32_t stripe_width{4};
  /// Capture touched-range deltas between full images (base + Σ deltas
  /// chains); false forces a full image every CLC.
  bool incremental{true};

  bool enabled() const { return kind != Kind::kNone; }
  bool operator==(const StorageSpec&) const = default;
};

/// One cluster: its size and its SAN characteristics.
struct ClusterSpec {
  /// Number of nodes in the cluster (>= 1).
  std::uint32_t nodes{1};
  /// Intra-cluster (SAN) link parameters, e.g. Myrinet-like 10us / 80Mb/s.
  LinkSpec san{};
  /// Checkpoint-storage cost model (off by default).
  StorageSpec storage{};
  bool operator==(const ClusterSpec&) const = default;
};

/// The federation: clusters plus the inter-cluster link matrix.
struct TopologySpec {
  std::vector<ClusterSpec> clusters;
  /// inter[i][j] (i != j) is the link between clusters i and j; symmetric.
  /// Sized clusters() x clusters(); the diagonal is unused.
  std::vector<std::vector<LinkSpec>> inter;
  /// Federation Mean Time Between Failures, read only by the
  /// RunOptions::auto_failures shim; topology files cannot set it (a
  /// campaign's [stream] section is the file form).  SimTime::infinity()
  /// disables that injection.
  SimTime mtbf{SimTime::infinity()};

  bool operator==(const TopologySpec&) const = default;

  /// Number of clusters.
  std::size_t cluster_count() const { return clusters.size(); }
  /// Total nodes across the federation.
  std::uint32_t total_nodes() const;
  /// Link between two distinct clusters (symmetric lookup).
  const LinkSpec& inter_link(ClusterId a, ClusterId b) const;
  /// Structural validation; throws CheckFailure when inconsistent.
  void validate() const;
};

/// Application behaviour of the processes of one cluster (one module of a
/// code-coupling application, paper Fig. 1).
struct ClusterAppSpec {
  /// Mean computation time between communication events, per node
  /// (exponentially distributed).
  SimTime mean_compute{seconds(60)};
  /// Size of one application message.
  std::uint64_t message_bytes{10 * 1024};
  /// traffic[j] = probability weight that a message from this cluster goes
  /// to cluster j (the diagonal entry is the intra-cluster weight).
  /// Weights are unnormalised; all zero disables sending from this cluster.
  std::vector<double> traffic;
  bool operator==(const ClusterAppSpec&) const = default;
};

/// The synthetic code-coupling application.
struct ApplicationSpec {
  /// Total application execution time (paper runs 10 h).
  SimTime total_time{hours(10)};
  /// Size of one process state, used for checkpoint storage accounting.
  std::uint64_t state_bytes{8 * 1024 * 1024};
  /// One entry per cluster.
  std::vector<ClusterAppSpec> clusters;

  bool operator==(const ApplicationSpec&) const = default;

  /// Validation against a topology; throws CheckFailure when inconsistent.
  void validate(const TopologySpec& topo) const;
};

/// Protocol timer configuration for one cluster.
struct ClusterTimerSpec {
  /// Delay between two unforced CLCs; SimTime::infinity() means the cluster
  /// never starts a CLC on its own (paper §5.2 runs cluster 1 this way).
  SimTime clc_period{minutes(30)};
  bool operator==(const ClusterTimerSpec&) const = default;
};

/// Protocol timers (paper: "delays between two CLCs, garbage collection...").
struct TimersSpec {
  /// Per-cluster CLC timers.
  std::vector<ClusterTimerSpec> clusters;
  /// Garbage-collection period; infinity disables GC.
  SimTime gc_period{SimTime::infinity()};
  /// Failure-detection latency (the detector itself is abstracted,
  /// paper §3.4).
  SimTime detection_delay{milliseconds(100)};

  bool operator==(const TimersSpec&) const = default;

  /// Validation against a topology; throws CheckFailure when inconsistent.
  void validate(const TopologySpec& topo) const;
};

/// Everything needed to run one simulation.
struct RunSpec {
  TopologySpec topology;
  ApplicationSpec application;
  TimersSpec timers;

  bool operator==(const RunSpec&) const = default;

  /// Validate all three parts together.
  void validate() const;
};

/// Time to move one process state across cluster `c`'s SAN: its latency
/// plus state_bytes over its bandwidth.  Every restart pays it — a node
/// pulls its state from the neighbour's replica (paper §3.1) — and the
/// application stays frozen until it has elapsed (§3.4).
SimTime state_transfer_time(const RunSpec& spec, ClusterId c);

}  // namespace hc3i::config
