#include "net/topology.hpp"

#include <utility>

namespace hc3i::net {

Topology::Topology(config::TopologySpec spec) : spec_(std::move(spec)) {
  spec_.validate();
  first_.reserve(spec_.cluster_count());
  std::uint32_t next = 0;
  for (std::uint32_t c = 0; c < spec_.cluster_count(); ++c) {
    first_.push_back(next);
    next += spec_.clusters[c].nodes;
    cluster_of_.resize(next, c);
  }
  total_nodes_ = next;
}

std::vector<NodeId> Topology::nodes_of(ClusterId c) const {
  const std::uint32_t base = first_node(c).v;
  const std::uint32_t n = cluster_size(c);
  std::vector<NodeId> out;
  out.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) out.push_back(NodeId{base + i});
  return out;
}

const config::LinkSpec& Topology::link(NodeId a, NodeId b) const {
  const ClusterId ca = cluster_of(a), cb = cluster_of(b);
  if (ca == cb) return spec_.clusters[ca.v].san;
  return spec_.inter_link(ca, cb);
}

NodeId Topology::ring_neighbour(NodeId n, std::uint32_t distance) const {
  const ClusterId c = cluster_of(n);
  const std::uint32_t base = first_node(c).v;
  const std::uint32_t size = cluster_size(c);
  HC3I_CHECK(size > 1 || distance % size == 0,
             "ring_neighbour: single-node cluster has no distinct neighbour");
  return NodeId{base + (n.v - base + distance) % size};
}

}  // namespace hc3i::net
