#pragma once

// Runtime topology: node/cluster layout plus link-parameter lookup.
//
// Nodes are numbered densely across the federation, cluster by cluster, so
// cluster membership is a range check and iteration over a cluster's nodes
// is a contiguous loop (matters at 100+ nodes per cluster).

#include <vector>

#include "config/spec.hpp"
#include "util/check.hpp"
#include "util/ids.hpp"

namespace hc3i::net {

/// Immutable layout + link lookup built from a validated TopologySpec.
class Topology {
 public:
  explicit Topology(config::TopologySpec spec);

  /// Number of clusters.
  std::size_t cluster_count() const { return spec_.cluster_count(); }
  /// Total node count.
  std::uint32_t node_count() const { return total_nodes_; }
  /// Number of nodes in a cluster.
  std::uint32_t cluster_size(ClusterId c) const {
    HC3I_CHECK(c.v < spec_.cluster_count(), "cluster_size: bad cluster id");
    return spec_.clusters[c.v].nodes;
  }
  /// Cluster that owns a node.
  ClusterId cluster_of(NodeId n) const {
    HC3I_CHECK(n.v < total_nodes_, "cluster_of: bad node id");
    return ClusterId{cluster_of_[n.v]};
  }
  /// First (lowest-id) node of a cluster — the default coordinator.
  NodeId first_node(ClusterId c) const {
    HC3I_CHECK(c.v < first_.size(), "first_node: bad cluster id");
    return NodeId{first_[c.v]};
  }
  /// All node ids of a cluster, in id order.
  std::vector<NodeId> nodes_of(ClusterId c) const;
  /// Link parameters between two nodes: the cluster SAN when co-located,
  /// otherwise the inter-cluster link (paper: SAN vs LAN/WAN).
  const config::LinkSpec& link(NodeId a, NodeId b) const;
  /// The ring successor of a node within its cluster — the stable-storage
  /// replica holder (paper §3.1: "in the memory of an other node").
  NodeId ring_neighbour(NodeId n, std::uint32_t distance = 1) const;
  /// The underlying validated spec.
  const config::TopologySpec& spec() const { return spec_; }

 private:
  config::TopologySpec spec_;
  std::vector<std::uint32_t> first_;  ///< first node id of each cluster
  std::vector<std::uint32_t> cluster_of_;  ///< owning cluster of each node
                                           ///< (the hot lookup: every send
                                           ///< resolves both endpoints)
  std::uint32_t total_nodes_{0};
};

}  // namespace hc3i::net
