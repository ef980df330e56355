#pragma once

// Cluster-Level-Checkpoint store.
//
// Logically, each node stores its part of every retained CLC twice: locally
// and in the memory of a neighbour node (paper §3.1 stable storage; "each
// node in the federation stores 126 local states" for 63 retained CLCs).
// The simulator keeps one authoritative record per CLC per cluster and
// models the replication in the storage accounting and in the fault rule
// (replication degree r tolerates r simultaneous faults per cluster —
// r = 1 in the paper, configurable per §7 future work).

#include <cstdint>
#include <optional>
#include <vector>

#include "net/message.hpp"
#include "proto/ddv.hpp"
#include "proto/dedup_set.hpp"
#include "proto/msg_log.hpp"
#include "proto/snapshot.hpp"
#include "util/time.hpp"

namespace hc3i::proto {

/// Per-node content of a CLC.
struct NodePart {
  AppSnapshot app;                        ///< process state
  DedupImage dedup;                       ///< delivered inter-cluster app_seqs
                                          ///< (shared copy-on-write snapshot)
  LogImage log;                           ///< sender log at capture (shared
                                          ///< copy-on-write snapshot)
};
// A retained CLC holds one part per node: at the 10x100 pre-GC peak that
// is ~200 000 parts, so each byte here is ~0.2 MB of peak RSS.
static_assert(sizeof(NodePart) <= 64, "NodePart grew past 64 bytes");

/// One committed cluster-level checkpoint.
struct ClcRecord {
  SeqNum sn{0};                 ///< cluster SN after this commit
  Ddv ddv;                      ///< the DDV timestamp (paper Fig. 5 boxes)
  SimTime commit_time{};        ///< simulated commit instant
  std::uint64_t ledger_mark{0}; ///< consistency-ledger cut at commit
  bool forced{false};           ///< forced (communication-induced) vs timer
  std::vector<NodePart> parts;  ///< indexed by cluster-local node index
  std::vector<net::Envelope> channel;  ///< in-flight intra msgs at commit
};

/// The retained CLCs of one cluster, ordered by SN (strictly increasing).
class ClcStore {
 public:
  /// `replication` is the number of extra copies of each node part kept on
  /// neighbour nodes (1 in the paper).
  ClcStore(ClusterId cluster, std::uint32_t nodes, std::uint32_t replication = 1);

  /// Append a committed CLC. SN must exceed the last stored SN.
  void commit(ClcRecord rec);

  /// Most recent CLC; REQUIRES !empty().
  const ClcRecord& last() const;

  /// The record with exactly this SN, or nullptr.
  const ClcRecord* find(SeqNum sn) const;

  /// Drop every CLC with SN > `sn` (a rollback invalidates the checkpoints
  /// of the undone future). Returns the number removed.
  std::size_t truncate_after(SeqNum sn);

  /// Garbage collection: drop every CLC with SN < `min_sn` (paper §3.5 —
  /// "removes the CLCs which have their cluster DDV entry smaller than the
  /// smallest SN"; the own-cluster DDV entry equals the SN). Returns the
  /// number removed.
  std::size_t prune_before(SeqNum min_sn);

  /// Number of retained CLCs.
  std::size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const std::vector<ClcRecord>& records() const { return records_; }
  ClusterId cluster() const { return cluster_; }

  /// Stored local states per node: retained CLCs x (1 + replication) —
  /// the paper's "126 local states" metric.
  std::uint64_t local_states_per_node() const {
    return records_.size() * (1 + replication_);
  }

  /// Total modelled storage bytes across the cluster (states + channel
  /// captures + checkpointed logs, including replicas).  Incremental
  /// captures count their delta, not the full state image.  O(1): a
  /// committed record never changes, so its bytes are counted once at
  /// commit and the total follows every commit, truncation and prune.
  std::uint64_t storage_bytes() const { return total_bytes_; }

  /// Bytes node `node_idx` must read back to restore from the CLC with
  /// SN `sn`: its part of that record plus every older delta back to (and
  /// including) the nearest full image.  When garbage collection pruned the
  /// original base, the oldest retained record acts as a rebased full image
  /// and is charged at state_bytes.  REQUIRES `sn` retained.
  std::uint64_t chain_read_bytes(SeqNum sn, std::uint32_t node_idx) const;

  /// Simultaneous in-cluster faults tolerated by the replication scheme.
  std::uint32_t replication() const { return replication_; }

 private:
  /// Drop records_[first, last) and their byte counts.
  std::size_t erase(std::size_t first, std::size_t last);

  ClusterId cluster_;
  std::uint32_t nodes_;
  std::uint32_t replication_;
  std::vector<ClcRecord> records_;
  std::vector<std::uint64_t> record_bytes_;  ///< bytes of records_[i],
                                             ///< replicas included
  std::uint64_t total_bytes_{0};             ///< sum of record_bytes_
};

}  // namespace hc3i::proto
