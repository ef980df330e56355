#include "net/network.hpp"

#include <algorithm>
#include <cmath>
#include <string>

namespace hc3i::net {

Network::Network(sim::Simulation& sim, const Topology& topo,
                 stats::Registry& reg)
    : sim_(sim), topo_(topo), reg_(reg),
      deliver_(topo.node_count()),
      up_(topo.node_count(), true),
      parked_(topo.node_count()),
      app_flights_(topo.cluster_count()) {}

void Network::attach(NodeId n, DeliverFn deliver) {
  HC3I_CHECK(n.v < deliver_.size(), "attach: bad node id");
  deliver_[n.v] = std::move(deliver);
}

void Network::count_send(const Envelope& env) {
  const bool app = env.cls == MsgClass::kApp;
  const bool intra = env.intra_cluster();
  TrafficCounters& tc = traffic_[app][intra];
  if (!tc.msgs) {
    const std::string key = std::string("net.") + (app ? "app" : "ctl") + "." +
                            (intra ? "intra" : "inter");
    tc.msgs = &reg_.counter(key + ".msgs");
    tc.bytes = &reg_.counter(key + ".bytes");
  }
  tc.msgs->inc();
  tc.bytes->inc(env.wire_bytes());
  if (app) {
    // Per-cluster-pair census — this is Table 1 of the paper.  A sparse
    // table of pre-resolved handles keyed by the pair actually touched
    // (memory scales with active pairs, not clusters²); the name string is
    // built once per pair per run, not once per message.
    stats::Counter*& cell = pair_census_.slot(env.src_cluster, env.dst_cluster);
    if (!cell) {
      cell = &reg_.counter("net.app.pair." + std::to_string(env.src_cluster.v) +
                           "." + std::to_string(env.dst_cluster.v));
    }
    cell->inc();
  }
}

std::uint32_t Network::alloc_flight() {
  std::uint32_t slot;
  if (!free_flights_.empty()) {
    slot = free_flights_.back();
    free_flights_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(flights_.size());
    flights_.emplace_back();
  }
  flights_[slot].live = true;
  ++live_flights_;
  return slot;
}

void Network::release_flight(std::uint32_t slot) {
  Flight& f = flights_[slot];
  if (f.app_cluster != kNil) {
    unlink(app_flights_[f.app_cluster], &Flight::app, slot);
    f.app_cluster = kNil;
  }
  f.live = false;
  f.parked = false;
  f.park = {};
  f.event = {};
  ++f.gen;
  free_flights_.push_back(slot);
  --live_flights_;
}

void Network::push_back(Ends& list, Link Flight::*link, std::uint32_t slot) {
  Link& l = flights_[slot].*link;
  l.prev = list.tail;
  l.next = kNil;
  if (list.tail != kNil) {
    (flights_[list.tail].*link).next = slot;
  } else {
    list.head = slot;
  }
  list.tail = slot;
}

void Network::unlink(Ends& list, Link Flight::*link, std::uint32_t slot) {
  Link& l = flights_[slot].*link;
  if (l.prev != kNil) {
    (flights_[l.prev].*link).next = l.next;
  } else {
    list.head = l.next;
  }
  if (l.next != kNil) {
    (flights_[l.next].*link).prev = l.prev;
  } else {
    list.tail = l.prev;
  }
  l = {};
}

void Network::park(std::uint32_t slot) {
  Flight& f = flights_[slot];
  f.parked = true;
  push_back(parked_[f.env.dst.v], &Flight::park, slot);
}

void Network::unpark(std::uint32_t slot) {
  Flight& f = flights_[slot];
  unlink(parked_[f.env.dst.v], &Flight::park, slot);
  f.parked = false;
}

MsgId Network::send(Envelope env) {
  HC3I_CHECK(env.src.v < topo_.node_count() && env.dst.v < topo_.node_count(),
             "send: bad endpoint");
  HC3I_CHECK(env.src != env.dst, "send: src == dst (use a direct call)");
  env.id = MsgId{next_msg_id_++};
  env.src_cluster = topo_.cluster_of(env.src);
  env.dst_cluster = topo_.cluster_of(env.dst);
  env.sent_at = sim_.now();
  count_send(env);

  const auto& link = topo_.link(env.src, env.dst);
  SimTime delay = link.latency;
  if (std::isfinite(link.bytes_per_sec)) {
    delay += from_seconds_f(static_cast<double>(env.wire_bytes()) /
                            link.bytes_per_sec);
  }
  const MsgId id = env.id;
  const std::uint32_t slot = alloc_flight();
  Flight& f = flights_[slot];
  if (env.cls == MsgClass::kApp) {
    // MsgIds only grow, so appending keeps each list in MsgId order.
    f.app_cluster = env.src_cluster.v;
    push_back(app_flights_[f.app_cluster], &Flight::app, slot);
  }
  f.env = std::move(env);
  f.event = sim_.schedule_after(
      delay, [this, slot, gen = f.gen] { arrive(slot, gen); });
  return id;
}

void Network::arrive(std::uint32_t slot, std::uint32_t gen) {
  HC3I_CHECK(slot < flights_.size() && flights_[slot].live &&
                 flights_[slot].gen == gen,
             "arrive: unknown message");
  Flight& f = flights_[slot];
  if (!up_[f.env.dst.v]) {
    // Destination is down: park. Delivered on set_node_up — the network is
    // reliable (paper §2.1), it never drops.
    park(slot);
    return;
  }
  Envelope env = std::move(f.env);  // leaves the slot holding no payload
  release_flight(slot);
  const auto& fn = deliver_[env.dst.v];
  HC3I_CHECK(static_cast<bool>(fn), "arrive: node has no receive handler");
  fn(env);
}

void Network::set_node_down(NodeId n) {
  HC3I_CHECK(n.v < up_.size(), "set_node_down: bad node id");
  up_[n.v] = false;
}

void Network::set_node_up(NodeId n) {
  HC3I_CHECK(n.v < up_.size(), "set_node_up: bad node id");
  if (up_[n.v]) return;
  up_[n.v] = true;
  // Deliver parked messages for this node, in MsgId (send) order, as fresh
  // immediate events so handlers run from a clean stack.  Only this node's
  // parked list is touched — O(parked here), not O(all in flight).
  std::vector<std::uint32_t> ready;
  for (std::uint32_t s = parked_[n.v].head; s != kNil;
       s = flights_[s].park.next) {
    ready.push_back(s);
  }
  std::sort(ready.begin(), ready.end(),
            [this](std::uint32_t a, std::uint32_t b) {
              return flights_[a].env.id.v < flights_[b].env.id.v;
            });
  for (const std::uint32_t slot : ready) {
    unpark(slot);
    Flight& f = flights_[slot];
    f.event = sim_.schedule_after(
        SimTime::zero(), [this, slot, gen = f.gen] { arrive(slot, gen); });
  }
}

bool Network::node_up(NodeId n) const {
  HC3I_CHECK(n.v < up_.size(), "node_up: bad node id");
  return up_[n.v];
}

std::vector<Envelope> Network::app_in_flight(ClusterId src) const {
  HC3I_CHECK(src.v < app_flights_.size(), "app_in_flight: bad cluster id");
  // The list is in MsgId order: the captured channel state feeds protocol
  // decisions, so its order is part of the bit-reproducibility contract.
  std::vector<Envelope> out;
  for (std::uint32_t s = app_flights_[src.v].head; s != kNil;
       s = flights_[s].app.next) {
    out.push_back(flights_[s].env);
  }
  return out;
}

std::size_t Network::drop_in_flight(
    const std::function<bool(const Envelope&)>& pred) {
  std::size_t dropped = 0;
  for (std::uint32_t s = 0; s < flights_.size(); ++s) {
    Flight& f = flights_[s];
    if (!f.live || !pred(f.env)) continue;
    if (f.parked) {
      unpark(s);
    } else {
      sim_.cancel(f.event);
    }
    f.env = {};  // drop payload references now, not when the slot is reused
    release_flight(s);
    ++dropped;
  }
  return dropped;
}

}  // namespace hc3i::net
