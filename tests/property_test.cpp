// Cross-module property tests: randomized sweeps asserting the system's
// invariants rather than specific values.
//
//  * topology fuzz: random mutation sequences keep the multigraph's
//    bookkeeping consistent and serialization faithful;
//  * simnet totality: any syntactically valid route produces a coherent
//    DeliveryResult and consistent counters;
//  * end-to-end: on random networks, map -> verify -> route -> deadlock
//    check -> replay all hold, including across reconfigurations.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.hpp"
#include "mapper/berkeley_mapper.hpp"
#include "mapper/robust_mapper.hpp"
#include "probe/probe_engine.hpp"
#include "routing/deadlock.hpp"
#include "routing/routes.hpp"
#include "simnet/fault_schedule.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/isomorphism.hpp"
#include "topology/serialize.hpp"

namespace sanmap {
namespace {

using topo::NodeId;
using topo::Topology;

// ---------------------------------------------------------- topology fuzz --

TEST(PropertyTopology, RandomMutationSequencesKeepInvariants) {
  common::Rng rng(8080);
  for (int trial = 0; trial < 20; ++trial) {
    Topology t;
    std::vector<NodeId> live_nodes;
    std::vector<topo::WireId> live_wires;
    int name_counter = 0;
    for (int op = 0; op < 200; ++op) {
      switch (rng.below(5)) {
        case 0: {  // add host
          live_nodes.push_back(
              t.add_host("f" + std::to_string(name_counter++)));
          break;
        }
        case 1: {  // add switch
          live_nodes.push_back(t.add_switch());
          break;
        }
        case 2: {  // connect two random nodes with free ports
          if (live_nodes.size() < 2) {
            break;
          }
          const NodeId a = rng.pick(live_nodes);
          const NodeId b = rng.pick(live_nodes);
          if (!t.node_alive(a) || !t.node_alive(b) || a == b) {
            break;
          }
          if (t.free_port(a) && t.free_port(b)) {
            live_wires.push_back(t.connect_any(a, b));
          }
          break;
        }
        case 3: {  // disconnect a random wire
          if (live_wires.empty()) {
            break;
          }
          const topo::WireId w = rng.pick(live_wires);
          if (t.wire_alive(w)) {
            t.disconnect(w);
          }
          break;
        }
        case 4: {  // remove a random node
          if (live_nodes.empty()) {
            break;
          }
          const NodeId n = rng.pick(live_nodes);
          if (t.node_alive(n)) {
            t.remove_node(n);
          }
          break;
        }
        default:
          break;
      }
    }

    // Invariant: counts agree with exhaustive enumeration.
    EXPECT_EQ(t.hosts().size(), t.num_hosts());
    EXPECT_EQ(t.switches().size(), t.num_switches());
    EXPECT_EQ(t.wires().size(), t.num_wires());

    // Invariant: wires and ports are mutually consistent.
    std::size_t port_ends = 0;
    for (const NodeId n : t.nodes()) {
      for (topo::Port p = 0; p < t.port_count(n); ++p) {
        const auto w = t.wire_at(n, p);
        if (!w) {
          continue;
        }
        ++port_ends;
        const topo::Wire& wire = t.wire(*w);
        EXPECT_TRUE((wire.a == topo::PortRef{n, p}) ||
                    (wire.b == topo::PortRef{n, p}));
        // The far end points back at us.
        const topo::PortRef far = wire.opposite(topo::PortRef{n, p});
        EXPECT_EQ(t.wire_at(far.node, far.port), *w);
      }
    }
    EXPECT_EQ(port_ends, 2 * t.num_wires());

    // Invariant: degree sums to twice the wire count.
    std::size_t degree_sum = 0;
    for (const NodeId n : t.nodes()) {
      degree_sum += static_cast<std::size_t>(t.degree(n));
    }
    EXPECT_EQ(degree_sum, 2 * t.num_wires());

    // Invariant: compaction and serialization are faithful.
    const Topology dense = t.compacted();
    EXPECT_EQ(dense.num_hosts(), t.num_hosts());
    EXPECT_EQ(dense.num_wires(), t.num_wires());
    EXPECT_TRUE(dense.structurally_equal(topo::from_text(topo::to_text(
        dense))));
    topo::IsoOptions loose;
    loose.match_host_names = true;
    loose.port_mode = topo::IsoOptions::PortMode::kExact;
    EXPECT_TRUE(topo::isomorphic(dense, t.compacted(), loose));
  }
}

// --------------------------------------------------------- simnet totality --

TEST(PropertySimnet, RandomRoutesAlwaysProduceCoherentResults) {
  common::Rng rng(9090);
  for (int trial = 0; trial < 5; ++trial) {
    common::Rng topo_rng(rng.next());
    const Topology t = topo::random_irregular(8, 6, 4, topo_rng);
    for (const auto collision : {simnet::CollisionModel::kCircuit,
                                 simnet::CollisionModel::kCutThrough}) {
      simnet::Network net(t, collision);
      const auto hosts = t.hosts();
      for (int i = 0; i < 500; ++i) {
        const NodeId src = rng.pick(hosts);
        simnet::Route route;
        const auto len = rng.below(10);
        for (std::uint64_t j = 0; j < len; ++j) {
          route.push_back(static_cast<simnet::Turn>(rng.range(-7, 7)));
        }
        const auto r = net.send(src, route);
        // Coherence: hops within bounds, latency nonnegative, destination
        // set iff the message got anywhere.
        EXPECT_GE(r.hops, 0);
        EXPECT_LE(r.hops, static_cast<int>(route.size()) + 1);
        EXPECT_GE(r.latency.to_ns(), 0);
        if (r.delivered()) {
          EXPECT_TRUE(t.is_host(r.destination));
          EXPECT_EQ(r.hops, static_cast<int>(route.size()) + 1);
        }
        if (r.status == simnet::DeliveryStatus::kStrandedInNetwork) {
          EXPECT_TRUE(t.is_switch(r.destination));
        }
        if (r.status == simnet::DeliveryStatus::kHitHostTooSoon) {
          EXPECT_TRUE(t.is_host(r.destination));
          EXPECT_LT(r.hops, static_cast<int>(route.size()) + 1);
        }
      }
      const auto& counters = net.counters();
      std::uint64_t by_status = 0;
      for (std::size_t s = 0; s < simnet::kNumDeliveryStatuses; ++s) {
        by_status += counters.by_status[s];
      }
      EXPECT_EQ(by_status, counters.messages);
      EXPECT_EQ(counters.messages, 500u);
      net.reset_counters();
    }
  }
}

TEST(PropertySimnet, CutThroughDeliversASupersetOfCircuit) {
  // §1.2: "The set of all probe paths generated by probing the network
  // with packet routing is a superset of the sets generated with circuit
  // or cut-through routing." With default buffering, cut-through delivers
  // everything circuit does.
  common::Rng rng(7171);
  for (int trial = 0; trial < 5; ++trial) {
    common::Rng topo_rng(rng.next());
    const Topology t = topo::random_irregular(6, 4, 4, topo_rng);
    simnet::Network circuit(t, simnet::CollisionModel::kCircuit);
    simnet::Network cut(t, simnet::CollisionModel::kCutThrough);
    const auto hosts = t.hosts();
    for (int i = 0; i < 300; ++i) {
      const NodeId src = rng.pick(hosts);
      simnet::Route route;
      const auto len = rng.below(12);
      for (std::uint64_t j = 0; j < len; ++j) {
        route.push_back(static_cast<simnet::Turn>(rng.range(-7, 7)));
      }
      const auto c = circuit.send(src, route);
      const auto k = cut.send(src, route);
      if (c.delivered()) {
        EXPECT_TRUE(k.delivered());
        EXPECT_EQ(k.destination, c.destination);
      }
    }
  }
}

// ----------------------------------------------------------- end to end ----

TEST(PropertyEndToEnd, MapRouteReplayOnRandomNetworks) {
  common::Rng rng(606060);
  for (int trial = 0; trial < 8; ++trial) {
    common::Rng topo_rng(rng.next());
    const Topology t = topo::random_irregular(4 + trial, 5 + trial,
                                              trial / 2, topo_rng);
    const NodeId mapper_host = t.hosts().front();

    simnet::Network net(t);
    probe::ProbeEngine engine(net, mapper_host);
    mapper::MapperConfig config;
    config.search_depth = topo::search_depth(t, mapper_host);
    const auto result = mapper::BerkeleyMapper(engine, config).run();
    ASSERT_TRUE(topo::isomorphic(result.map, topo::core(t)))
        << "trial " << trial;

    const auto routes = routing::compute_updown_routes(result.map, {},
                                                       rng.next());
    EXPECT_TRUE(routing::summarize(routes).compliant);
    EXPECT_TRUE(routing::analyze_routes(result.map, routes).deadlock_free);

    simnet::Network replay(result.map);
    routes.routes.for_each_route([&](NodeId src, NodeId dst,
                                     const routing::HostRoute& route) {
      const auto r = replay.send(src, route.turns);
      EXPECT_TRUE(r.delivered()) << "trial " << trial;
      EXPECT_EQ(r.destination, dst);
    });
  }
}

TEST(PropertyEndToEnd, MappingSurvivesRandomReconfigurations) {
  common::Rng rng(515151);
  Topology t = topo::star(4, 2);
  const NodeId mapper_host = t.hosts().front();
  for (int event = 0; event < 12; ++event) {
    // Random mutation that keeps the mapper attached and the graph with at
    // least two hosts.
    switch (rng.below(3)) {
      case 0: {  // add a host somewhere
        std::vector<NodeId> candidates;
        for (const NodeId s : t.switches()) {
          if (t.free_port(s)) {
            candidates.push_back(s);
          }
        }
        if (!candidates.empty()) {
          const NodeId h =
              t.add_host("r" + std::to_string(event));
          t.connect_any(h, rng.pick(candidates));
        }
        break;
      }
      case 1: {  // add a switch with two links
        std::vector<NodeId> candidates;
        for (const NodeId s : t.switches()) {
          if (t.free_port(s)) {
            candidates.push_back(s);
          }
        }
        if (candidates.size() >= 2) {
          const NodeId sw = t.add_switch();
          t.connect_any(sw, candidates[0]);
          t.connect_any(sw, candidates[1]);
        }
        break;
      }
      case 2: {  // remove a non-mapper host
        std::vector<NodeId> candidates;
        for (const NodeId h : t.hosts()) {
          if (h != mapper_host) {
            candidates.push_back(h);
          }
        }
        if (candidates.size() > 1) {
          t.remove_node(rng.pick(candidates));
        }
        break;
      }
      default:
        break;
    }
    if (t.num_hosts() < 2) {
      continue;
    }
    simnet::Network net(t);
    probe::ProbeEngine engine(net, mapper_host);
    mapper::MapperConfig config;
    config.search_depth = topo::search_depth(t, mapper_host);
    const auto result = mapper::BerkeleyMapper(engine, config).run();
    EXPECT_TRUE(topo::isomorphic(result.map, topo::core(t)))
        << "event " << event;
  }
}

TEST(PropertyEndToEnd, ProbeOrderNeverChangesTheMap) {
  common::Rng rng(121212);
  for (int trial = 0; trial < 5; ++trial) {
    common::Rng topo_rng(rng.next());
    const Topology t = topo::random_irregular(7, 7, 3, topo_rng);
    const NodeId mapper_host = t.hosts().front();
    topo::Topology maps[3];
    int i = 0;
    for (const auto order :
         {probe::ProbeOrder::kSwitchFirst, probe::ProbeOrder::kHostFirst,
          probe::ProbeOrder::kBoth}) {
      simnet::Network net(t);
      probe::ProbeOptions options;
      options.order = order;
      probe::ProbeEngine engine(net, mapper_host, options);
      mapper::MapperConfig config;
      config.search_depth = topo::search_depth(t, mapper_host);
      maps[i++] = mapper::BerkeleyMapper(engine, config).run().map;
    }
    EXPECT_TRUE(topo::isomorphic(maps[0], maps[1]));
    EXPECT_TRUE(topo::isomorphic(maps[0], maps[2]));
  }
}

TEST(PropertyEndToEnd, SeveredSubclusterAlwaysMapsToTheSurvivingCore) {
  // Theorem 1 under timed faults: attach a tail subcluster to a random
  // network over a single bridge wire and kill the bridge mid-session. No
  // matter where the death lands relative to the probe sequence, the
  // robust session must converge to a map isomorphic to the surviving
  // core N - F (the mapper's component with the tail gone).
  common::Rng rng(272727);
  for (int trial = 0; trial < 6; ++trial) {
    common::Rng topo_rng(rng.next());
    Topology t = topo::random_irregular(4 + trial % 3, 4 + trial % 4,
                                        trial % 3, topo_rng);
    const NodeId mapper_host = t.hosts().front();
    const NodeId tail_switch = t.add_switch("tail-s");
    const NodeId tail_host = t.add_host("tail-h");
    std::vector<NodeId> anchors;
    for (const NodeId s : t.switches()) {
      if (s != tail_switch && t.free_port(s)) {
        anchors.push_back(s);
      }
    }
    ASSERT_FALSE(anchors.empty());
    const topo::WireId bridge = t.connect_any(tail_switch, rng.pick(anchors));
    t.connect_any(tail_host, tail_switch);

    mapper::MapperConfig base;
    base.search_depth = topo::search_depth(t, mapper_host) + 2;

    // Measure an undisturbed pass to aim the fault into the session.
    common::SimTime pass_time;
    {
      simnet::Network quiet(t);
      probe::ProbeEngine probe_engine(quiet, mapper_host);
      pass_time = mapper::BerkeleyMapper(probe_engine, base).run().elapsed;
    }
    const auto fault_at = common::SimTime::from_us(
        pass_time.to_us() * (0.2 + 0.13 * trial));

    simnet::FaultSchedule schedule;
    schedule.link_down(bridge, fault_at);
    simnet::Network net(t);
    net.attach_faults(&schedule);
    probe::ProbeEngine engine(net, mapper_host);
    mapper::RobustConfig config;
    config.base = base;
    const auto result = mapper::RobustMapper(engine, config).run();

    ASSERT_TRUE(result.converged) << "trial " << trial;
    EXPECT_FALSE(result.map.find_host("tail-h").has_value())
        << "trial " << trial;
    const Topology alive = topo::component_of(
        schedule.surviving(t, result.elapsed), mapper_host);
    EXPECT_TRUE(topo::isomorphic(result.map, topo::core(alive)))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace sanmap
