#pragma once

// Hc3iRuntime — per-run shared state of the HC3I protocol.
//
// The runtime owns what is logically *cluster-level* rather than node-level:
// the stable-storage checkpoint store of each cluster (paper §3.1), the
// cluster incarnation counters, and the garbage-collection history the
// evaluation tables report.  It also gives the cluster coordinator direct
// access to its cluster's agents for two simulator shortcuts (each has a
// row in docs/paper_map.md):
//
//   * channel-state capture at CLC commit reads each node's held-back
//     arrivals (a real implementation would gather the same information
//     with Chandy–Lamport flush markers over the FIFO SAN), and
//   * a cluster rollback applies atomically to all nodes of the cluster
//     (a real implementation would run a restart barrier; the simulated
//     time cost — state-transfer delay before the application resumes —
//     is modelled either way).

#include <memory>
#include <vector>

#include "config/spec.hpp"
#include "hc3i/options.hpp"
#include "proto/agent.hpp"
#include "proto/clc_store.hpp"
#include "proto/msg_log.hpp"
#include "storage/backend.hpp"
#include "util/check.hpp"
#include "util/ids.hpp"
#include "util/time.hpp"

namespace hc3i::core {

class Hc3iAgent;

/// One garbage-collection outcome for one cluster (paper Tables 2 and 3:
/// "the number of CLCs stored just before and just after the collection").
struct GcEvent {
  SimTime time{};
  ClusterId cluster{};
  std::size_t clcs_before{0};
  std::size_t clcs_after{0};
};

/// Observer of CLC-round phase transitions (per round, never per message).
/// The fault-campaign engine (src/fault/engine.hpp) implements it to fire
/// phase-targeted failure injections ("between phase-1 ack and commit");
/// failure detection and recovery are the federation's to track
/// (fed::Federation's fault phases), not an observer's.  Agents notify
/// through the runtime only when an observer is installed, so failure-free
/// runs pay one null-pointer test per round.
class ProtocolObserver {
 public:
  virtual ~ProtocolObserver() = default;
  /// A coordinator recorded a phase-1 ack: `acks` of `needed` are in and
  /// the round has not committed yet (when acks == needed the commit
  /// follows immediately after this call returns).
  virtual void on_phase1_ack(ClusterId /*cluster*/, std::uint64_t /*round*/,
                             std::uint32_t /*acks*/,
                             std::uint32_t /*needed*/) {}
  /// A cluster committed a CLC.
  virtual void on_clc_commit(ClusterId /*cluster*/, SeqNum /*sn*/,
                             bool /*forced*/) {}
};

/// Shared protocol state for one simulation run.
class Hc3iRuntime {
 public:
  Hc3iRuntime(const config::RunSpec& spec, Hc3iOptions opts);

  /// The agent factory to hand to Federation::build_agents. Agents register
  /// themselves with the runtime on construction.
  proto::AgentFactory factory();

  /// Register an externally constructed agent (used by protocol variants
  /// that subclass Hc3iAgent, e.g. the independent-checkpointing baseline).
  void register_agent(ClusterId c, Hc3iAgent* agent);

  const Hc3iOptions& options() const { return opts_; }
  const config::RunSpec& spec() const { return spec_; }
  std::size_t cluster_count() const { return spec_.topology.cluster_count(); }

  /// The stable-storage checkpoint store of a cluster.
  proto::ClcStore& store(ClusterId c);
  const proto::ClcStore& store(ClusterId c) const;

  /// The checkpoint-storage cost model of a cluster, or nullptr when
  /// storage is not modelled there (the default: captures and recovery
  /// reads are free, exactly the seed behaviour).
  const storage::Backend* backend(ClusterId c) const {
    HC3I_CHECK(c.v < backends_.size(), "backend: bad cluster");
    return backends_[c.v].get();
  }
  /// The storage spec the backend was built from.
  const config::StorageSpec& storage_spec(ClusterId c) const {
    HC3I_CHECK(c.v < spec_.topology.clusters.size(),
               "storage_spec: bad cluster");
    return spec_.topology.clusters[c.v].storage;
  }

  /// Current incarnation of a cluster (bumped on every rollback).
  Incarnation incarnation(ClusterId c) const;
  /// Bump and return the new incarnation.
  Incarnation bump_incarnation(ClusterId c);
  /// Sum of all incarnations — changes iff any rollback happened (used by
  /// the GC initiator to abort rounds that raced with a rollback).
  std::uint64_t fed_rollback_epoch() const;

  /// Agents of one cluster, in node order (available once built).
  const std::vector<Hc3iAgent*>& cluster_agents(ClusterId c) const;

  /// Sender-log entries (and unacknowledged entries) currently held by a
  /// cluster's nodes.  Each agent's log reports its changes here
  /// (MsgLog::attach_tally), so reading a total is O(1).
  proto::LogTally& log_tally(ClusterId c) {
    HC3I_CHECK(c.v < log_tallies_.size(), "log_tally: bad cluster");
    return log_tallies_[c.v];
  }

  /// Record a GC outcome (called by each cluster's GC handler).
  void record_gc(SimTime t, ClusterId c, std::size_t before,
                 std::size_t after);
  /// All GC outcomes, in occurrence order.
  const std::vector<GcEvent>& gc_events() const { return gc_events_; }

  /// Install (or clear) the protocol observer; `o` must outlive the run.
  void set_observer(ProtocolObserver* o) { observer_ = o; }
  /// The installed observer, or nullptr (the common, failure-free case).
  ProtocolObserver* observer() const { return observer_; }

 private:
  config::RunSpec spec_;
  Hc3iOptions opts_;
  std::vector<std::unique_ptr<proto::ClcStore>> stores_;
  std::vector<std::unique_ptr<storage::Backend>> backends_;  ///< per cluster
  std::vector<Incarnation> incarnations_;
  std::vector<std::vector<Hc3iAgent*>> agents_;  ///< [cluster][local index]
  std::vector<proto::LogTally> log_tallies_;     ///< per cluster; never
                                                 ///< resized (logs point in)
  std::vector<GcEvent> gc_events_;
  ProtocolObserver* observer_{nullptr};
};

}  // namespace hc3i::core
