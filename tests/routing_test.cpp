// Tests for UP*/DOWN* orientation, route computation, the pooled passes
// over a table's trees, deadlock analysis, and replay of the emitted source
// routes through the simulator.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "analysis/certificates.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "routing/deadlock.hpp"
#include "routing/routes.hpp"
#include "routing/updown.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"

namespace sanmap::routing {
namespace {

using simnet::Network;
using topo::NodeId;
using topo::Topology;

// ------------------------------------------------------------ orientation --

TEST(UpDown, RootIsFarthestSwitchFromHosts) {
  const Topology t = topo::star(4, 2);
  const UpDownOrientation o(t, {});
  EXPECT_EQ(t.name(o.root()), "center");
  EXPECT_EQ(o.raw_labels()[o.root()], 0);
}

TEST(UpDown, ExplicitRootHonored) {
  const Topology t = topo::star(4, 2);
  const NodeId leaf = t.switches()[1];
  UpDownOptions options;
  options.root = leaf;
  const UpDownOrientation o(t, options);
  EXPECT_EQ(o.root(), leaf);
}

TEST(UpDown, EdgesPointTowardRoot) {
  const Topology t = topo::star(3, 1);
  const UpDownOrientation o(t, {});
  for (const topo::WireId w : t.wires()) {
    const topo::Wire& wire = t.wire(w);
    // For each wire, exactly one direction is up.
    EXPECT_NE(o.goes_up(t, w, wire.a.node), o.goes_up(t, w, wire.b.node));
    // The up move decreases the label (or ties broken by id).
    const NodeId from =
        o.goes_up(t, w, wire.a.node) ? wire.a.node : wire.b.node;
    const NodeId to = wire.opposite(from).node;
    EXPECT_LE(o.raw_labels()[to], o.raw_labels()[from]);
  }
}

TEST(UpDown, HostsAreAlwaysBelowTheirSwitch) {
  const Topology t = topo::now_subcluster(topo::Subcluster::kC, "C");
  const UpDownOrientation o(t, {});
  for (const NodeId h : t.hosts()) {
    const auto w = t.wire_at(h, 0);
    ASSERT_TRUE(w.has_value());
    EXPECT_TRUE(o.goes_up(t, *w, h));
  }
}

/// A diamond with a host-free far corner: r - {x, y} - m, hosts on x and y.
/// BFS from r labels m above both neighbors, so m is locally dominant: no
/// route can transit it until it is relabeled.
Topology diamond_with_dominant_corner() {
  Topology t;
  const NodeId r = t.add_switch("r");
  const NodeId x = t.add_switch("x");
  const NodeId y = t.add_switch("y");
  const NodeId m = t.add_switch("m");
  t.connect(r, 0, x, 0);
  t.connect(r, 1, y, 0);
  t.connect(x, 1, m, 0);
  t.connect(y, 1, m, 1);
  for (int i = 0; i < 2; ++i) {
    const NodeId hx = t.add_host("hx" + std::to_string(i));
    t.connect(hx, 0, x, 2 + i);
    const NodeId hy = t.add_host("hy" + std::to_string(i));
    t.connect(hy, 0, y, 2 + i);
  }
  return t;
}

TEST(UpDown, DominantSwitchGetsRelabeled) {
  const Topology t = diamond_with_dominant_corner();
  UpDownOptions fix;
  fix.root = *[&]() -> std::optional<NodeId> {
    for (const NodeId s : t.switches()) {
      if (t.name(s) == "r") {
        return s;
      }
    }
    return std::nullopt;
  }();
  fix.fix_dominant_switches = true;
  const UpDownOrientation fixed(t, fix);
  UpDownOptions raw = fix;
  raw.fix_dominant_switches = false;
  const UpDownOrientation unfixed(t, raw);
  EXPECT_EQ(fixed.relabeled_switches(), 1);
  EXPECT_EQ(unfixed.relabeled_switches(), 0);
  // After the fix, m sits below its neighbors and can be transited.
  const NodeId m = *[&]() -> std::optional<NodeId> {
    for (const NodeId s : t.switches()) {
      if (t.name(s) == "m") {
        return s;
      }
    }
    return std::nullopt;
  }();
  EXPECT_LT(fixed.raw_labels()[m], 1);
  EXPECT_EQ(unfixed.raw_labels()[m], 2);
  // Routes are valid either way; with the fix, some cross route may use m.
  for (const bool use_fix : {true, false}) {
    UpDownOptions options = fix;
    options.fix_dominant_switches = use_fix;
    const auto result = compute_updown_routes(t, options);
    EXPECT_TRUE(summarize(result).compliant);
    EXPECT_TRUE(analyze_routes(t, result).deadlock_free);
  }
}

TEST(UpDown, RequiresConnectedTopology) {
  Topology t = topo::star(2, 1);
  t.add_switch();  // disconnected
  EXPECT_THROW(UpDownOrientation(t, {}), common::CheckFailure);
}

// ----------------------------------------------------------------- routes --

void expect_routes_valid(const Topology& t, const RoutingResult& result) {
  const auto hosts = t.hosts();
  // Every ordered host pair has a route.
  EXPECT_EQ(result.routes.size(), hosts.size() * (hosts.size() - 1));
  EXPECT_TRUE(summarize(result).compliant);
  const auto analysis = analyze_routes(t, result);
  EXPECT_TRUE(analysis.deadlock_free)
      << "dependency cycle of " << analysis.cycle.size() << " channels";

  // Replaying the turn sequences through the simulator delivers each
  // message to its destination.
  Network net(t);
  result.routes.for_each_route([&](NodeId src, NodeId dst,
                                   const HostRoute& route) {
    const auto r = net.send(src, route.turns);
    EXPECT_TRUE(r.delivered()) << t.name(src) << " -> " << t.name(dst)
                               << ": " << simnet::to_string(r.status);
    EXPECT_EQ(r.destination, dst);
  });
}

TEST(Routes, LineNetwork) {
  Topology t;
  const NodeId h0 = t.add_host("h0");
  const NodeId s0 = t.add_switch();
  const NodeId s1 = t.add_switch();
  const NodeId h1 = t.add_host("h1");
  t.connect(h0, 0, s0, 2);
  t.connect(s0, 5, s1, 1);
  t.connect(h1, 0, s1, 4);
  const auto result = compute_updown_routes(t);
  expect_routes_valid(t, result);
  EXPECT_EQ(result.route(h0, h1).hops(), 3);
  EXPECT_EQ(result.route(h0, h1).turns, (simnet::Route{3, 3}));
}

TEST(Routes, StarAllPairs) {
  const Topology t = topo::star(4, 3);
  expect_routes_valid(t, compute_updown_routes(t));
}

TEST(Routes, RingAllPairs) {
  const Topology t = topo::ring(6, 1);
  expect_routes_valid(t, compute_updown_routes(t));
}

TEST(Routes, HypercubeWithDominantFix) {
  const Topology t = topo::hypercube(3, 1);
  const auto result = compute_updown_routes(t);
  expect_routes_valid(t, result);
}

TEST(Routes, HypercubeWithoutDominantFixStillDeadlockFree) {
  const Topology t = topo::hypercube(3, 1);
  UpDownOptions options;
  options.fix_dominant_switches = false;
  const auto result = compute_updown_routes(t, options);
  expect_routes_valid(t, result);
}

TEST(Routes, MeshAndTorus) {
  expect_routes_valid(topo::mesh(3, 3, 1),
                      compute_updown_routes(topo::mesh(3, 3, 1)));
  expect_routes_valid(topo::torus(3, 3, 1),
                      compute_updown_routes(topo::torus(3, 3, 1)));
}

TEST(Routes, NowSubclusterC) {
  const Topology t = topo::now_subcluster(topo::Subcluster::kC, "C");
  const NodeId util = *t.find_host("C.util");
  UpDownOptions options;
  options.ignore_hosts = {util};  // §5.5: ignore the utility host
  const auto result = compute_updown_routes(t, options);
  expect_routes_valid(t, result);
  // The root should be a root-level switch of the fat tree.
  EXPECT_NE(t.name(result.orientation.root()).find("root"),
            std::string::npos);
}

TEST(Routes, FullNowCluster) {
  const Topology t = topo::now_cluster();
  const auto result = compute_updown_routes(t);
  EXPECT_EQ(result.routes.size(), 100u * 99u);
  EXPECT_TRUE(summarize(result).compliant);
  EXPECT_TRUE(analyze_routes(t, result).deadlock_free);
  const HopSummary hops = summarize(result).hops();
  EXPECT_GT(hops.mean, 2.0);
  EXPECT_LE(hops.max, topo::diameter(t) + 4);
}

TEST(Routes, RandomNetworksSweep) {
  common::Rng rng(314);
  for (int trial = 0; trial < 10; ++trial) {
    common::Rng topo_rng(rng.next());
    const Topology t =
        topo::random_irregular(3 + trial, 4 + trial, trial, topo_rng);
    expect_routes_valid(t, compute_updown_routes(t, {}, rng.next()));
  }
}

TEST(Routes, ParallelCablesAreLoadBalanced) {
  // Two parallel cables between the switches: different seeds should
  // eventually pick different cables for some pair.
  Topology t;
  const NodeId s0 = t.add_switch();
  const NodeId s1 = t.add_switch();
  t.connect(s0, 0, s1, 0);
  t.connect(s0, 1, s1, 1);
  std::vector<NodeId> hosts;
  for (int i = 0; i < 3; ++i) {
    hosts.push_back(t.add_host());
    t.connect_any(hosts.back(), s0);
    hosts.push_back(t.add_host());
    t.connect_any(hosts.back(), s1);
  }
  bool used_both = false;
  topo::WireId first_seen = topo::kInvalidWire;
  for (std::uint64_t seed = 1; seed <= 16 && !used_both; ++seed) {
    const auto result = compute_updown_routes(t, {}, seed);
    result.routes.for_each_route([&](NodeId, NodeId, const HostRoute& route) {
      for (const topo::WireId w : route.wires) {
        const topo::Wire& wire = t.wire(w);
        if (wire.a.node != s0 && wire.b.node != s0) {
          continue;
        }
        if (wire.a.node == s0 && wire.b.node == s1) {
          if (first_seen == topo::kInvalidWire) {
            first_seen = w;
          } else if (w != first_seen) {
            used_both = true;
          }
        }
      }
    });
  }
  EXPECT_TRUE(used_both);
}

TEST(Routes, TableForReturnsPerSourceRoutes) {
  const Topology t = topo::star(3, 2);
  auto result = compute_updown_routes(t);
  auto hosts = t.hosts();
  std::sort(hosts.begin(), hosts.end());
  const auto same = [](const HostRoute& a, const HostRoute& b) {
    return a.nodes == b.nodes && a.wires == b.wires && a.turns == b.turns;
  };
  // Each source gets exactly its own routes, in ascending destination order,
  // as the table walks them.
  for (const NodeId src : hosts) {
    const auto table = result.table_for(src);
    std::size_t k = 0;
    for (const NodeId dst : hosts) {
      if (dst != src) {
        ASSERT_LT(k, table.size()) << "source " << src;
        EXPECT_TRUE(same(table[k++], result.route(src, dst)))
            << "source " << src << " destination " << dst;
      }
    }
    EXPECT_EQ(k, table.size()) << "source " << src;
  }
  // Sources without routes: a switch and an id past every node. And a
  // destination whose entries were cleared drops out of every source's
  // table, while its own table and the other pairs stay.
  EXPECT_TRUE(result.table_for(t.switches().front()).empty());
  EXPECT_TRUE(
      result.table_for(static_cast<NodeId>(t.node_capacity() + 5)).empty());
  const NodeId dropped = hosts[1];
  result.routes.clear_entries(result.routes.host_index(dropped));
  result.routes.recount();
  EXPECT_EQ(result.routes.size(), (hosts.size() - 1) * (hosts.size() - 1));
  EXPECT_EQ(result.table_for(dropped).size(), hosts.size() - 1);
  for (const NodeId src : {hosts[0], hosts[2]}) {
    const auto table = result.table_for(src);
    EXPECT_EQ(table.size(), hosts.size() - 2);
    for (const HostRoute& route : table) {
      EXPECT_NE(route.nodes.back(), dropped);
    }
  }
}

TEST(Routes, MissingRouteThrows) {
  const Topology t = topo::star(3, 2);
  const auto result = compute_updown_routes(t);
  EXPECT_THROW((void)result.route(t.hosts()[0], t.hosts()[0]),
               common::CheckFailure);
}

// ------------------------------------------------------ pooled tree passes --

/// 130 hosts: two full blocks of RouteTable::kBlock destinations and a
/// partial third.
Topology three_block_fabric(std::uint64_t seed) {
  common::Rng rng(seed);
  return topo::random_irregular(40, 130, 20, rng);
}

/// The walked dependencies of a table, each distinct one once.
std::set<std::pair<Channel, Channel>> walked_dependencies(
    const Topology& t, const RoutingResult& routes) {
  std::set<std::pair<Channel, Channel>> out;
  for_each_walked_dependency(
      t, routes,
      [&](const Channel& held, const Channel& next) {
        out.emplace(held, next);
      });
  return out;
}

/// The summary's deadlock certificate against the three-colour DFS over
/// the walked stream: same verdict and count, the same dependencies, and
/// (when acyclic) an order in which every walked dependency points forward.
void expect_certificate_matches_the_walk(const Topology& t,
                                         const RoutingResult& routes,
                                         const TableSummary& summary) {
  const analysis::DeadlockCertificate cert =
      analysis::build_deadlock_certificate(t, summary);
  const DeadlockAnalysis dfs = analyze_routes(t, routes);
  EXPECT_EQ(cert.deadlock_free, dfs.deadlock_free);
  EXPECT_EQ(cert.dependencies, dfs.dependencies);
  const auto walked = walked_dependencies(t, routes);
  std::set<std::pair<Channel, Channel>> summarized;
  for_each_dependency(t, summary, [&](const Channel& held,
                                      const Channel& next) {
    summarized.emplace(held, next);
  });
  EXPECT_EQ(summarized, walked);
  if (!cert.deadlock_free) {
    return;
  }
  std::map<Channel, std::size_t> position;
  for (std::size_t k = 0; k < cert.topological_order.size(); ++k) {
    position[cert.topological_order[k]] = k;
  }
  std::set<Channel> dependent;
  for (const auto& [held, next] : walked) {
    dependent.insert(held);
    dependent.insert(next);
    ASSERT_TRUE(position.contains(held) && position.contains(next));
    EXPECT_LT(position[held], position[next]);
  }
  EXPECT_EQ(dependent.size(), cert.topological_order.size());
}

TEST(TableSummary, PooledPassMatchesTheWalkedRoutesAcrossAPartialBlock) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Topology t = three_block_fabric(seed);
    ASSERT_EQ(t.num_hosts(), 130u);
    const RoutingResult routes = compute_updown_routes(t, {}, seed);
    common::CallPool pool;
    const TableSummary summary = summarize(routes, pool);

    std::uint64_t routed = 0;
    std::uint64_t total = 0;
    int longest = 0;
    routes.routes.for_each_route(
        [&](NodeId, NodeId, const HostRoute& route) {
          ++routed;
          total += static_cast<std::uint64_t>(route.hops());
          longest = std::max(longest, route.hops());
        });
    EXPECT_EQ(summary.routed, routed) << "seed " << seed;
    EXPECT_EQ(summary.total_hops, total) << "seed " << seed;
    EXPECT_EQ(summary.hops().mean,
              static_cast<double>(total) / static_cast<double>(routed));
    EXPECT_EQ(summary.hops().max, longest) << "seed " << seed;
    EXPECT_TRUE(summary.compliant) << "seed " << seed;
    expect_certificate_matches_the_walk(t, routes, summary);
  }
}

TEST(TableSummary, ADownUpTurnIsNotCompliant) {
  const Topology t = three_block_fabric(4);
  RoutingResult routes = compute_updown_routes(t);
  ASSERT_FALSE(analysis::inject_down_up_turn(t, routes).empty());
  common::CallPool pool;
  const TableSummary summary = summarize(routes, pool);
  EXPECT_FALSE(summary.compliant);
  expect_certificate_matches_the_walk(t, routes, summary);
}

TEST(RouteTable, PooledRecountMatchesAWalkCount) {
  const Topology t = three_block_fabric(5);
  RoutingResult routes = compute_updown_routes(t);
  RouteTable& table = routes.routes;
  // Unroute destinations in every block and one entry of another's tree.
  for (const std::uint32_t dst : {3u, 70u, 129u}) {
    table.clear_entries(dst);
  }
  table.set_entry(100, table.start(0), topo::kInvalidWire);
  common::CallPool pool;
  table.recount(pool);
  std::size_t walked = 0;
  table.for_each_route([&](NodeId, NodeId, const HostRoute&) { ++walked; });
  EXPECT_EQ(table.size(), walked);
  EXPECT_LT(table.size(), 130u * 129u - 3u * 129u);
}

// ---------------------------------------------------------------- deadlock --

TEST(Deadlock, DetectsAHandMadeCycle) {
  // Ring of 3 switches; three "routes" that each go one step clockwise
  // create the classic cyclic channel dependency.
  const Topology t = topo::ring(3, 1);
  const auto wires = t.wires();
  // Collect the three ring wires (those between switches).
  std::vector<Channel> ring_channels;
  for (const topo::WireId w : wires) {
    const topo::Wire& wire = t.wire(w);
    if (t.is_switch(wire.a.node) && t.is_switch(wire.b.node)) {
      ring_channels.push_back(Channel{w, true});
    }
  }
  ASSERT_EQ(ring_channels.size(), 3u);
  // Orient the channels consistently clockwise: channel i goes from
  // switch i to switch i+1. ring() wires port 0 (cw) to port 1, and wire
  // endpoints are (i, 0)-(i+1, 1), so a_to_b is clockwise already.
  std::vector<std::vector<Channel>> paths = {
      {ring_channels[0], ring_channels[1]},
      {ring_channels[1], ring_channels[2]},
      {ring_channels[2], ring_channels[0]},
  };
  const auto analysis = analyze_channel_paths(t, paths);
  EXPECT_FALSE(analysis.deadlock_free);
  EXPECT_GE(analysis.cycle.size(), 3u);
}

TEST(Deadlock, AcyclicPathsPass) {
  const Topology t = topo::ring(3, 1);
  std::vector<Channel> channels;
  for (const topo::WireId w : t.wires()) {
    channels.push_back(Channel{w, true});
  }
  const std::vector<std::vector<Channel>> paths = {
      {channels[0], channels[1]}, {channels[1], channels[2]}};
  EXPECT_TRUE(analyze_channel_paths(t, paths).deadlock_free);
}

TEST(Deadlock, CountsDependencies) {
  const Topology t = topo::ring(3, 1);
  const auto result = compute_updown_routes(t);
  const auto analysis = analyze_routes(t, result);
  EXPECT_TRUE(analysis.deadlock_free);
  EXPECT_GT(analysis.dependencies, 0u);
  EXPECT_EQ(analysis.channels, t.wire_capacity() * 2);
}

}  // namespace
}  // namespace sanmap::routing
