// Unit tests for src/net: topology lookups and network delivery semantics.

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "config/presets.hpp"
#include "net/network.hpp"
#include "net/topology.hpp"
#include "sim/simulation.hpp"
#include "stats/registry.hpp"
#include "util/rng.hpp"

namespace hc3i::net {
namespace {

Topology make_topo(std::size_t clusters = 2, std::uint32_t nodes = 4) {
  return Topology(config::small_test_spec(clusters, nodes).topology);
}

TEST(Topology, DenseNumbering) {
  const Topology topo = make_topo(3, 5);
  EXPECT_EQ(topo.node_count(), 15u);
  EXPECT_EQ(topo.cluster_of(NodeId{0}), ClusterId{0});
  EXPECT_EQ(topo.cluster_of(NodeId{4}), ClusterId{0});
  EXPECT_EQ(topo.cluster_of(NodeId{5}), ClusterId{1});
  EXPECT_EQ(topo.cluster_of(NodeId{14}), ClusterId{2});
  EXPECT_EQ(topo.first_node(ClusterId{2}), NodeId{10});
  EXPECT_EQ(topo.cluster_size(ClusterId{1}), 5u);
}

TEST(Topology, NodesOfCluster) {
  const Topology topo = make_topo(2, 3);
  const auto nodes = topo.nodes_of(ClusterId{1});
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0], NodeId{3});
  EXPECT_EQ(nodes[2], NodeId{5});
}

TEST(Topology, LinkSelection) {
  const Topology topo = make_topo(2, 4);
  // Same cluster -> SAN latency (10us in the small spec); cross -> 150us.
  EXPECT_EQ(topo.link(NodeId{0}, NodeId{1}).latency, microseconds(10));
  EXPECT_EQ(topo.link(NodeId{0}, NodeId{4}).latency, microseconds(150));
}

TEST(Topology, RingNeighbourWraps) {
  const Topology topo = make_topo(2, 4);
  EXPECT_EQ(topo.ring_neighbour(NodeId{0}), NodeId{1});
  EXPECT_EQ(topo.ring_neighbour(NodeId{3}), NodeId{0});  // wraps in cluster 0
  EXPECT_EQ(topo.ring_neighbour(NodeId{7}), NodeId{4});  // wraps in cluster 1
  EXPECT_EQ(topo.ring_neighbour(NodeId{0}, 2), NodeId{2});
}

TEST(Topology, BadIdsThrow) {
  const Topology topo = make_topo(2, 2);
  EXPECT_THROW(topo.cluster_of(NodeId{99}), CheckFailure);
  EXPECT_THROW(topo.first_node(ClusterId{9}), CheckFailure);
}

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest() : topo_(make_topo()), net_(sim_, topo_, reg_) {
    for (std::uint32_t i = 0; i < topo_.node_count(); ++i) {
      net_.attach(NodeId{i}, [this, i](const Envelope& env) {
        received_.emplace_back(NodeId{i}, env);
      });
    }
  }

  Envelope app_env(NodeId src, NodeId dst, std::uint64_t bytes = 1000) {
    Envelope env;
    env.src = src;
    env.dst = dst;
    env.cls = MsgClass::kApp;
    env.payload_bytes = bytes;
    env.app_seq = next_seq_++;
    return env;
  }

  sim::Simulation sim_;
  stats::Registry reg_;
  Topology topo_;
  Network net_;
  std::vector<std::pair<NodeId, Envelope>> received_;
  std::uint64_t next_seq_{1};
};

TEST_F(NetworkTest, DeliversWithLatencyPlusSerialisation) {
  // Intra-cluster: 10us latency + wire bytes at 80Mb/s (= 10MB/s).
  // The wire size includes the 8-byte protocol piggyback.
  Envelope env = app_env(NodeId{0}, NodeId{1}, 1000);
  const std::uint64_t wire = env.wire_bytes();
  EXPECT_EQ(wire, 1008u);
  net_.send(std::move(env));
  sim_.run_all();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].first, NodeId{1});
  EXPECT_EQ(sim_.now(), microseconds(10) + nanoseconds(static_cast<int64_t>(
                            wire / 10e6 * 1e9)));
}

TEST_F(NetworkTest, AssignsUniqueIdsAndClusters) {
  const MsgId a = net_.send(app_env(NodeId{0}, NodeId{1}));
  const MsgId b = net_.send(app_env(NodeId{0}, NodeId{5}));
  EXPECT_NE(a, b);
  sim_.run_all();
  ASSERT_EQ(received_.size(), 2u);
  for (const auto& [node, env] : received_) {
    EXPECT_EQ(env.src_cluster, ClusterId{0});
    if (node == NodeId{5}) {
      EXPECT_EQ(env.dst_cluster, ClusterId{1});
    }
  }
}

TEST_F(NetworkTest, SmallMessageOvertakesLarge) {
  // The paper only assumes arbitrary finite delay; reordering is allowed
  // and the protocols must tolerate it.
  net_.send(app_env(NodeId{0}, NodeId{1}, 1'000'000));
  net_.send(app_env(NodeId{0}, NodeId{1}, 10));
  sim_.run_all();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[0].second.payload_bytes, 10u);
}

TEST_F(NetworkTest, ParkedWhileDownDeliveredOnRevival) {
  net_.set_node_down(NodeId{1});
  net_.send(app_env(NodeId{0}, NodeId{1}));
  sim_.run_until(seconds(1));
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(net_.in_flight_count(), 1u);  // parked, not lost
  net_.set_node_up(NodeId{1});
  sim_.run_all();
  ASSERT_EQ(received_.size(), 1u);  // the network is reliable (paper §2.1)
}

TEST_F(NetworkTest, ParkedMessagesDeliverInSendOrder) {
  // Park several messages whose arrival order differs from their send order
  // (the big head-of-line message arrives last); revival must deliver in
  // MsgId (send) order regardless.
  net_.set_node_down(NodeId{1});
  net_.send(app_env(NodeId{0}, NodeId{1}, 1'000'000));  // seq 1, arrives last
  net_.send(app_env(NodeId{0}, NodeId{1}, 10));         // seq 2, arrives first
  net_.send(app_env(NodeId{2}, NodeId{1}, 500));        // seq 3
  sim_.run_until(seconds(1));
  EXPECT_TRUE(received_.empty());
  EXPECT_EQ(net_.in_flight_count(), 3u);
  net_.set_node_up(NodeId{1});
  sim_.run_all();
  ASSERT_EQ(received_.size(), 3u);
  EXPECT_EQ(received_[0].second.app_seq, 1u);
  EXPECT_EQ(received_[1].second.app_seq, 2u);
  EXPECT_EQ(received_[2].second.app_seq, 3u);
}

TEST_F(NetworkTest, RevivalOnlyTouchesThatNodesParkedMessages) {
  net_.set_node_down(NodeId{1});
  net_.set_node_down(NodeId{2});
  net_.send(app_env(NodeId{0}, NodeId{1}));
  net_.send(app_env(NodeId{0}, NodeId{2}));
  sim_.run_until(seconds(1));
  EXPECT_EQ(net_.in_flight_count(), 2u);
  net_.set_node_up(NodeId{1});
  sim_.run_all();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].first, NodeId{1});
  EXPECT_EQ(net_.in_flight_count(), 1u);  // node 2's message still parked
  net_.set_node_up(NodeId{2});
  sim_.run_all();
  EXPECT_EQ(received_.size(), 2u);
  EXPECT_EQ(net_.in_flight_count(), 0u);
}

TEST_F(NetworkTest, RepeatedDownUpCyclesKeepParkingConsistent) {
  for (int cycle = 0; cycle < 3; ++cycle) {
    net_.set_node_down(NodeId{1});
    net_.send(app_env(NodeId{0}, NodeId{1}));
    net_.send(app_env(NodeId{3}, NodeId{1}));
    sim_.run_until(sim_.now() + seconds(1));
    net_.set_node_up(NodeId{1});
    sim_.run_all();
  }
  ASSERT_EQ(received_.size(), 6u);
  for (std::size_t i = 1; i < received_.size(); ++i) {
    EXPECT_LT(received_[i - 1].second.app_seq, received_[i].second.app_seq);
  }
}

TEST_F(NetworkTest, AppInFlightSeesUnarrived) {
  net_.send(app_env(NodeId{0}, NodeId{1}));
  net_.send(app_env(NodeId{0}, NodeId{5}));
  net_.send(app_env(NodeId{5}, NodeId{6}));
  EXPECT_EQ(net_.app_in_flight(ClusterId{0}).size(), 2u);
  EXPECT_EQ(net_.app_in_flight(ClusterId{1}).size(), 1u);
  sim_.run_all();
  EXPECT_TRUE(net_.app_in_flight(ClusterId{0}).empty());
  EXPECT_TRUE(net_.app_in_flight(ClusterId{1}).empty());
}

TEST_F(NetworkTest, AppInFlightKeepsSendOrderAcrossSlotReuse) {
  // A one-byte intra-cluster message lands first; the next send reuses its
  // slot, which then sits below every older flight in the slab.
  const MsgId a = net_.send(app_env(NodeId{0}, NodeId{1}, 1));
  const MsgId b = net_.send(app_env(NodeId{4}, NodeId{5}));
  const MsgId c = net_.send(app_env(NodeId{0}, NodeId{5}));
  const MsgId d = net_.send(app_env(NodeId{4}, NodeId{0}));
  sim_.run_until(microseconds(20));
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].second.id, a);
  const MsgId e = net_.send(app_env(NodeId{1}, NodeId{2}));
  const MsgId f = net_.send(app_env(NodeId{5}, NodeId{6}));

  const auto ids = [this](std::uint32_t cluster) {
    std::vector<MsgId> out;
    for (const Envelope& env : net_.app_in_flight(ClusterId{cluster})) {
      out.push_back(env.id);
    }
    return out;
  };
  EXPECT_EQ(ids(0), (std::vector<MsgId>{c, e}));
  EXPECT_EQ(ids(1), (std::vector<MsgId>{b, d, f}));
}

TEST_F(NetworkTest, AppInFlightListsParkedButNotDroppedDeliveredOrControl) {
  net_.set_node_down(NodeId{1});
  const MsgId parked = net_.send(app_env(NodeId{0}, NodeId{1}));
  const MsgId delivered = net_.send(app_env(NodeId{0}, NodeId{2}));
  net_.send(app_env(NodeId{0}, NodeId{3}));
  Envelope ctl;
  ctl.src = NodeId{0};
  ctl.dst = NodeId{2};
  ctl.cls = MsgClass::kControl;
  const MsgId control = net_.send(std::move(ctl));
  EXPECT_EQ(net_.app_in_flight(ClusterId{0}).size(), 3u);

  EXPECT_EQ(net_.drop_in_flight(
                [](const Envelope& e) { return e.dst == NodeId{3}; }),
            1u);
  sim_.run_all();
  ASSERT_EQ(received_.size(), 2u);
  EXPECT_EQ(received_[0].second.id, control);  // no payload: lands first
  EXPECT_EQ(received_[1].second.id, delivered);
  const auto listed = net_.app_in_flight(ClusterId{0});
  ASSERT_EQ(listed.size(), 1u);
  EXPECT_EQ(listed[0].id, parked);

  net_.set_node_up(NodeId{1});
  sim_.run_all();
  EXPECT_TRUE(net_.app_in_flight(ClusterId{0}).empty());
  EXPECT_EQ(net_.in_flight_count(), 0u);
}

// Random sends, deliveries, node down/up and drops against a brute-force
// model of every live flight: after each operation, each cluster's
// app_in_flight must be exactly the model's app flights from that cluster,
// in MsgId order.
TEST(AppInFlight, MatchesReferenceModel) {
  const Topology topo = make_topo(3, 3);
  const auto node_count = static_cast<std::uint64_t>(topo.node_count());
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE(seed);
    sim::Simulation sim;
    stats::Registry reg;
    Network net(sim, topo, reg);
    std::map<std::uint64_t, Envelope> model;  // MsgId -> live flight
    for (std::uint32_t i = 0; i < node_count; ++i) {
      net.attach(NodeId{i}, [&model](const Envelope& env) {
        ASSERT_EQ(model.erase(env.id.v), 1u);
      });
    }
    RngStream rng(seed, 5);
    const auto node = [&] {
      return NodeId{static_cast<std::uint32_t>(rng.next_below(node_count))};
    };

    for (int op = 0; op < 400; ++op) {
      const std::uint64_t kind = rng.next_below(100);
      if (kind < 45) {
        Envelope env;
        env.src = node();
        do {
          env.dst = node();
        } while (env.dst == env.src);
        env.cls = rng.next_below(3) == 0 ? MsgClass::kControl : MsgClass::kApp;
        env.payload_bytes = rng.next_below(2000);
        Envelope copy = env;
        copy.id = net.send(std::move(env));
        copy.src_cluster = topo.cluster_of(copy.src);
        copy.dst_cluster = topo.cluster_of(copy.dst);
        model.emplace(copy.id.v, copy);
      } else if (kind < 75) {
        sim.run_until(sim.now() +
                      microseconds(static_cast<std::int64_t>(
                          rng.next_below(300))));
      } else if (kind < 85) {
        net.set_node_down(node());
      } else if (kind < 95) {
        net.set_node_up(node());
      } else {
        const ClusterId c{static_cast<std::uint32_t>(
            rng.next_below(topo.cluster_count()))};
        const auto pred = [c](const Envelope& e) { return e.dst_cluster == c; };
        const std::size_t expect = std::erase_if(
            model, [&pred](const auto& kv) { return pred(kv.second); });
        ASSERT_EQ(net.drop_in_flight(pred), expect) << "op " << op;
      }
      if (HasFailure()) return;

      ASSERT_EQ(net.in_flight_count(), model.size()) << "op " << op;
      for (std::uint32_t c = 0; c < topo.cluster_count(); ++c) {
        std::vector<std::uint64_t> want;
        for (const auto& [id, e] : model) {
          if (e.cls == MsgClass::kApp && e.src_cluster == ClusterId{c}) {
            want.push_back(id);
          }
        }
        std::vector<std::uint64_t> got;
        for (const Envelope& e : net.app_in_flight(ClusterId{c})) {
          got.push_back(e.id.v);
        }
        ASSERT_EQ(got, want) << "op " << op << " cluster " << c;
      }
    }
  }
}

TEST_F(NetworkTest, DropInFlightCancelsDelivery) {
  net_.send(app_env(NodeId{0}, NodeId{1}));
  net_.send(app_env(NodeId{0}, NodeId{5}));
  const std::size_t dropped = net_.drop_in_flight(
      [](const Envelope& e) { return e.intra_cluster(); });
  EXPECT_EQ(dropped, 1u);
  sim_.run_all();
  ASSERT_EQ(received_.size(), 1u);
  EXPECT_EQ(received_[0].first, NodeId{5});
}

TEST_F(NetworkTest, DropAlsoRemovesParked) {
  net_.set_node_down(NodeId{1});
  net_.send(app_env(NodeId{0}, NodeId{1}));
  sim_.run_until(seconds(1));
  EXPECT_EQ(net_.drop_in_flight([](const Envelope&) { return true; }), 1u);
  net_.set_node_up(NodeId{1});
  sim_.run_all();
  EXPECT_TRUE(received_.empty());
}

TEST_F(NetworkTest, CountsTrafficByClassAndPair) {
  net_.send(app_env(NodeId{0}, NodeId{1}));
  net_.send(app_env(NodeId{0}, NodeId{5}));
  Envelope ctl;
  ctl.src = NodeId{0};
  ctl.dst = NodeId{2};
  ctl.cls = MsgClass::kControl;
  ctl.payload_bytes = 64;
  net_.send(std::move(ctl));
  sim_.run_all();
  EXPECT_EQ(reg_.get("net.app.intra.msgs"), 1u);
  EXPECT_EQ(reg_.get("net.app.inter.msgs"), 1u);
  EXPECT_EQ(reg_.get("net.ctl.intra.msgs"), 1u);
  EXPECT_EQ(reg_.get("net.app.pair.0.1"), 1u);
  EXPECT_EQ(reg_.get("net.app.pair.0.0"), 1u);
}

TEST_F(NetworkTest, PiggybackCostsBytes) {
  Envelope env = app_env(NodeId{0}, NodeId{5}, 1000);
  env.piggy.ddv = {1, 2, 3};  // transitive extension carries the DDV
  const std::uint64_t wire = env.wire_bytes();
  EXPECT_EQ(wire, 1000 + sizeof(SeqNum) + sizeof(Incarnation) +
                      3 * sizeof(SeqNum));
}

TEST_F(NetworkTest, SendToSelfThrows) {
  EXPECT_THROW(net_.send(app_env(NodeId{0}, NodeId{0})), CheckFailure);
}

}  // namespace
}  // namespace hc3i::net
