#pragma once

// The simulated network.
//
// Semantics follow the paper's assumptions (§2.1): reliable — "a sent message
// will be received in an arbitrary but finite lapse of time" — with per-link
// one-way latency plus size/bandwidth serialisation delay.  Messages between
// different node pairs are independent (no contention model); messages on the
// same pair may reorder when a small message overtakes a large one, which the
// protocols must (and do) tolerate.
//
// Fail-stop support: messages addressed to a node that is currently down are
// *parked* and delivered when the node comes back up — the network never
// loses messages, matching the paper's reliability assumption; it is the
// protocol's job (incarnation filtering) to discard stale ones.
//
// The in-flight registry gives the checkpointing layer two primitives the
// paper leaves implicit but any implementation needs:
//   * app_in_flight(src)    — capture channel state at CLC commit,
//   * drop_in_flight(pred)  — discard a rolled-back cluster's stale
//                             intra-cluster traffic.
//
// Every message crosses this layer, so its bookkeeping is slot-indexed: a
// flight lives in a recycled slab slot (O(1) add/remove, no per-message node
// allocation), parked messages hang off a per-node intrusive list (reviving a
// node is O(parked-for-that-node), not O(all in flight)), live application
// flights hang off a per-source-cluster intrusive list in send order (a
// commit's capture is O(that cluster's app flights), not a walk of the slab;
// control flights never join it), and the traffic census bumps pre-resolved
// stats::Counter handles instead of building name strings per send.

#include <functional>
#include <vector>

#include "net/message.hpp"
#include "net/pair_census.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "stats/registry.hpp"

namespace hc3i::net {

/// Delivery callback: invoked at arrival time with the envelope.
using DeliverFn = std::function<void(const Envelope&)>;

/// The message-passing fabric of the federation.
class Network {
 public:
  Network(sim::Simulation& sim, const Topology& topo, stats::Registry& reg);

  /// Register the receive handler for a node. Must be called for every node
  /// before traffic flows to it.
  void attach(NodeId n, DeliverFn deliver);

  /// Transmit a message. The envelope's id and sent_at are assigned here;
  /// the assigned MsgId is returned (sender-side logs keep it).
  /// src/dst clusters are filled from the topology.
  MsgId send(Envelope env);

  /// Mark a node down (fail-stop) — subsequent arrivals are parked.
  void set_node_down(NodeId n);
  /// Mark a node up again and deliver everything parked for it.
  void set_node_up(NodeId n);
  /// True if the node is currently up.
  bool node_up(NodeId n) const;

  /// Copy every in-flight (sent, not yet arrived, plus parked) application
  /// envelope sent from cluster `src`, in MsgId (send) order. Used for CLC
  /// channel-state capture.
  std::vector<Envelope> app_in_flight(ClusterId src) const;

  /// Remove every in-flight/parked envelope matching `pred`; returns how
  /// many were dropped. Used when a cluster rolls back.
  std::size_t drop_in_flight(const std::function<bool(const Envelope&)>& pred);

  /// Number of messages currently in flight or parked.
  std::size_t in_flight_count() const { return live_flights_; }

  /// Distinct (src cluster, dst cluster) pairs that carried application
  /// traffic — the census footprint (scales with active pairs, not
  /// clusters²; see pair_census.hpp).
  std::size_t census_active_pairs() const {
    return pair_census_.active_pairs();
  }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// One flight's links in an intrusive slot list.
  struct Link {
    std::uint32_t prev{kNil};
    std::uint32_t next{kNil};
  };
  /// The two ends of an intrusive slot list.
  struct Ends {
    std::uint32_t head{kNil};
    std::uint32_t tail{kNil};
  };

  struct Flight {
    Envelope env;
    sim::EventId event;       ///< scheduled arrival (stale while parked)
    std::uint32_t gen{1};     ///< bumped when the slot is recycled
    Link park;                ///< per-destination-node parked list
    Link app;                 ///< per-source-cluster app list
    /// Source cluster of an app flight, kept here because `arrive` moves
    /// `env` out before releasing the slot; kNil for control flights.
    std::uint32_t app_cluster{kNil};
    bool live{false};
    bool parked{false};
  };

  /// Pre-resolved census handles for one (class, direction) bucket.
  struct TrafficCounters {
    stats::Counter* msgs{nullptr};
    stats::Counter* bytes{nullptr};
  };

  void arrive(std::uint32_t slot, std::uint32_t gen);
  void count_send(const Envelope& env);
  std::uint32_t alloc_flight();
  /// Recycle a flight slot.  Leaves `env` alone: callers move it out
  /// (arrive) or reset it (drop_in_flight) first.
  void release_flight(std::uint32_t slot);
  void park(std::uint32_t slot);
  void unpark(std::uint32_t slot);
  void push_back(Ends& list, Link Flight::*link, std::uint32_t slot);
  void unlink(Ends& list, Link Flight::*link, std::uint32_t slot);

  sim::Simulation& sim_;
  const Topology& topo_;
  stats::Registry& reg_;
  std::vector<DeliverFn> deliver_;     ///< indexed by NodeId
  std::vector<bool> up_;               ///< indexed by NodeId
  std::vector<Flight> flights_;        ///< slot-indexed flight table
  std::vector<std::uint32_t> free_flights_;  ///< recycled slots
  std::vector<Ends> parked_;        ///< indexed by NodeId
  std::vector<Ends> app_flights_;   ///< indexed by ClusterId, MsgId order
  std::size_t live_flights_{0};
  std::uint64_t next_msg_id_{1};

  // Census handles, resolved on first touch so a run's counter set (and its
  // dump) stays exactly what the traffic actually produced.
  TrafficCounters traffic_[2][2];  ///< [is_app][is_intra]
  PairCensus pair_census_;         ///< sparse (src, dst) cluster-pair census
};

}  // namespace hc3i::net
