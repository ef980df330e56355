#pragma once

// Strongly-typed identifiers used across the federation model.
//
// ClusterId / NodeId are distinct types so cluster-scoped and node-scoped
// quantities cannot be mixed up (a DDV is indexed by *cluster*, which the
// paper stresses: "the size of the DDV is the number of clusters in the
// federation, not the number of nodes").

#include <cstdint>
#include <functional>
#include <string>

namespace hc3i {

/// Identifies a cluster within the federation (dense, 0-based).
struct ClusterId {
  std::uint32_t v{0};
  constexpr bool operator==(const ClusterId&) const = default;
  constexpr auto operator<=>(const ClusterId&) const = default;
};

/// Identifies a node globally (dense, 0-based across the whole federation).
struct NodeId {
  std::uint32_t v{0};
  constexpr bool operator==(const NodeId&) const = default;
  constexpr auto operator<=>(const NodeId&) const = default;
};

/// Globally unique message identifier, assigned by the network at send time.
struct MsgId {
  std::uint64_t v{0};
  constexpr bool operator==(const MsgId&) const = default;
  constexpr auto operator<=>(const MsgId&) const = default;
};

/// A cluster-level checkpoint sequence number (the paper's "SN").
/// SN_i counts the CLCs committed by cluster i; the initial checkpoint taken
/// at application start commits with SN = 1.
using SeqNum = std::uint32_t;

/// A cluster incarnation number, bumped each time the cluster rolls back.
/// Used to tell stale pre-rollback messages from their re-sent copies
/// (docs/paper_map.md, "Incarnations"); the paper leaves it implicit.
using Incarnation = std::uint32_t;

inline std::string to_string(ClusterId c) { return "C" + std::to_string(c.v); }
inline std::string to_string(NodeId n) { return "n" + std::to_string(n.v); }

}  // namespace hc3i

template <>
struct std::hash<hc3i::ClusterId> {
  std::size_t operator()(hc3i::ClusterId c) const noexcept {
    return std::hash<std::uint32_t>{}(c.v);
  }
};
template <>
struct std::hash<hc3i::NodeId> {
  std::size_t operator()(hc3i::NodeId n) const noexcept {
    return std::hash<std::uint32_t>{}(n.v);
  }
};
template <>
struct std::hash<hc3i::MsgId> {
  std::size_t operator()(hc3i::MsgId m) const noexcept {
    return std::hash<std::uint64_t>{}(m.v);
  }
};
