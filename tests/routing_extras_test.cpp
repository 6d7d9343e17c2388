// Tests for the routing extras: congestion analysis, spanning-tree routing
// (the §6 comparison baseline), table distribution, and probe retries.
#include <gtest/gtest.h>

#include "probe/probe_engine.hpp"
#include "routing/congestion.hpp"
#include "routing/deadlock.hpp"
#include "routing/distribute.hpp"
#include "routing/route_health.hpp"
#include "routing/routes.hpp"
#include "routing/tree_routes.hpp"
#include "simnet/fault_schedule.hpp"
#include "simnet/network.hpp"
#include "topology/generators.hpp"

namespace sanmap::routing {
namespace {

using topo::NodeId;
using topo::Topology;

// ------------------------------------------------------------ congestion --

TEST(Congestion, CountsChannelLoads) {
  // Star with 2 leaves, 1 host each: the single inter-switch path carries
  // both directions' routes.
  const Topology t = topo::star(2, 1);
  const auto routes = compute_updown_routes(t);
  const auto stats = channel_load(t, routes);
  EXPECT_EQ(stats.max_channel_load, 1u);  // 2 routes, opposite directions
  EXPECT_GT(stats.used_channels, 0u);
  EXPECT_GT(stats.root_traffic_share, 0.0);
  EXPECT_NE(stats.hottest_wire, topo::kInvalidWire);
}

TEST(Congestion, RootShareReflectsTheKnownUpDownWeakness) {
  // On the torus, UP*/DOWN* concentrates traffic around the BFS root
  // ("increased congestion about the root"); tree routing is even worse.
  const Topology t = topo::torus(4, 4, 1);
  const auto updown = compute_updown_routes(t);
  const auto tree = compute_tree_routes(t);
  const auto updown_stats = channel_load(t, updown);
  const auto tree_stats = channel_load(t, tree);
  EXPECT_GT(updown_stats.root_traffic_share, 0.05);
  EXPECT_GE(tree_stats.max_channel_load, updown_stats.max_channel_load);
}

TEST(Congestion, EmptyRouteSetIsZero) {
  // One switch, one host: no host pairs, no routes.
  Topology t;
  const NodeId s = t.add_switch();
  const NodeId h = t.add_host();
  t.connect(h, 0, s, 0);
  const auto routes = compute_updown_routes(t);
  const auto stats = channel_load(t, routes);
  EXPECT_EQ(stats.max_channel_load, 0u);
  EXPECT_EQ(stats.used_channels, 0u);
}

// ---------------------------------------------------------- tree routing --

TEST(TreeRoutes, AllPairsDeliveredAndDeadlockFree) {
  for (const Topology& t :
       {topo::torus(3, 3, 1), topo::now_subcluster(topo::Subcluster::kC, "C"),
        topo::hypercube(3, 1)}) {
    const auto routes = compute_tree_routes(t);
    const auto hosts = t.hosts();
    EXPECT_EQ(routes.routes.size(), hosts.size() * (hosts.size() - 1));
    EXPECT_TRUE(summarize(routes).compliant);
    EXPECT_TRUE(analyze_routes(t, routes).deadlock_free);
    simnet::Network net(t);
    routes.routes.for_each_route(
        [&](NodeId src, NodeId dst, const HostRoute& route) {
          const auto r = net.send(src, route.turns);
          EXPECT_TRUE(r.delivered());
          EXPECT_EQ(r.destination, dst);
        });
  }
}

TEST(TreeRoutes, UsesOnlyTreeEdges) {
  const Topology t = topo::torus(3, 3, 1);
  const auto routes = compute_tree_routes(t);
  std::set<topo::WireId> used;
  routes.routes.for_each_route([&](NodeId, NodeId, const HostRoute& route) {
    used.insert(route.wires.begin(), route.wires.end());
  });
  // A spanning tree over 9 switches + 9 host links = 8 + 9 wires at most.
  EXPECT_LE(used.size(), t.num_switches() - 1 + t.num_hosts());
}

TEST(TreeRoutes, LongerOrEqualPathsThanUpDown) {
  const Topology t = topo::torus(4, 4, 1);
  const auto tree = compute_tree_routes(t);
  const auto updown = compute_updown_routes(t);
  EXPECT_GE(summarize(tree).hops().mean,
            summarize(updown).hops().mean);
}

// ----------------------------------------------------------- distribution --

TEST(Distribute, ShipsEveryTable) {
  const Topology t = topo::now_subcluster(topo::Subcluster::kC, "C");
  const auto routes = compute_updown_routes(t);
  simnet::Network net(t);
  const NodeId master = *t.find_host("C.util");
  const auto result = distribute_tables(net, routes, master);
  EXPECT_TRUE(result.complete);
  EXPECT_EQ(result.messages, t.num_hosts() - 1);
  EXPECT_GT(result.bytes, 0u);
  EXPECT_GT(result.elapsed.to_ns(), 0);
}

TEST(Distribute, FlagsUndeliverableTables) {
  // Compute routes on the full network, then degrade the fabric with heavy
  // traffic: some table messages are destroyed and distribution reports it.
  const Topology t = topo::star(3, 2);
  const auto routes = compute_updown_routes(t);
  simnet::FaultModel faults;
  faults.traffic_intensity = 0.9;
  simnet::Network net(t, simnet::CollisionModel::kCutThrough,
                      simnet::CostModel{}, faults, 5);
  const auto result = distribute_tables(net, routes, t.hosts().front());
  EXPECT_FALSE(result.complete);
}

TEST(Distribute, EmptyRouteSetIsVacuouslyComplete) {
  // A single host has nobody to ship tables to: zero messages, complete by
  // definition, no time spent — in both id-space and map-space form.
  Topology t;
  const NodeId s = t.add_switch();
  const NodeId h = t.add_host("lonely");
  t.connect(h, 0, s, 0);
  const auto routes = compute_updown_routes(t);
  ASSERT_TRUE(routes.routes.empty());

  simnet::Network net(t);
  const auto by_id = distribute_tables(net, routes, h);
  EXPECT_TRUE(by_id.complete);
  EXPECT_EQ(by_id.messages, 0u);
  EXPECT_EQ(by_id.bytes, 0u);
  EXPECT_EQ(by_id.elapsed.to_ns(), 0);

  const auto by_name =
      distribute_tables(net, routes, t, "lonely", common::SimTime{});
  EXPECT_TRUE(by_name.complete);
  EXPECT_EQ(by_name.messages, 0u);
}

TEST(Distribute, HostVanishingMidDistributionIsIncomplete) {
  // The master works through the interfaces sequentially; a host that dies
  // while earlier tables are still being shipped fails its own delivery
  // without poisoning the ones already sent.
  const Topology t = topo::torus(3, 3, 1);
  const auto routes = compute_updown_routes(t);
  const std::string master = t.name(t.hosts().front());

  common::SimTime full_span;
  {
    simnet::Network net(t);
    const auto clean =
        distribute_tables(net, routes, t, master, common::SimTime{});
    ASSERT_TRUE(clean.complete);
    full_span = clean.elapsed;
  }

  // The last host in distribution order receives its table near the end of
  // the run; killing it halfway in guarantees "mid-distribution".
  simnet::FaultSchedule schedule;
  schedule.node_down(t.hosts().back(),
                     common::SimTime::ns(full_span.to_ns() / 2));
  simnet::Network net(t);
  net.attach_faults(&schedule);
  const auto degraded =
      distribute_tables(net, routes, t, master, common::SimTime{});
  EXPECT_FALSE(degraded.complete);
  EXPECT_EQ(degraded.messages, t.num_hosts() - 1);  // every send attempted
  // The failed delivery is charged the timeout, so the degraded run is not
  // cheaper than the clean one.
  EXPECT_GT(degraded.elapsed, full_span);
}

// ----------------------------------------------------------- route health --

TEST(RouteHealth, EmptyRouteSetIsHealthy) {
  Topology t;
  const NodeId s = t.add_switch();
  const NodeId h = t.add_host("lonely");
  t.connect(h, 0, s, 0);
  const auto routes = compute_updown_routes(t);
  simnet::Network net(t);
  const auto report = check_routes(net, routes, t, common::SimTime{});
  EXPECT_TRUE(report.healthy());
  EXPECT_EQ(report.routes_checked, 0u);
  EXPECT_EQ(report.delivery_ratio(), 1.0);
}

TEST(RouteHealth, DeadHostBreaksItsRoutesWithTheRightStatus) {
  // A host death breaks every route touching it: sourced routes die in the
  // NIC (kDropped — the interface is off), inbound routes die on the wire
  // (the paper's NO SUCH WIRE). Routes between surviving hosts still work.
  const Topology t = topo::torus(3, 3, 1);
  const auto routes = compute_updown_routes(t);
  const NodeId victim = t.hosts().back();
  const std::string victim_name = t.name(victim);

  simnet::FaultSchedule schedule;
  schedule.node_down(victim, common::SimTime{});
  simnet::Network net(t);
  net.attach_faults(&schedule);

  const auto report = check_routes(net, routes, t, common::SimTime{});
  EXPECT_FALSE(report.healthy());
  const std::size_t hosts = t.num_hosts();
  EXPECT_EQ(report.routes_checked, hosts * (hosts - 1));
  EXPECT_EQ(report.broken.size(), 2 * (hosts - 1));  // to + from the victim
  for (const BrokenRoute& broken : report.broken) {
    EXPECT_TRUE(broken.src == victim_name || broken.dst == victim_name);
    if (broken.src == victim_name) {
      EXPECT_EQ(broken.status, simnet::DeliveryStatus::kDropped);
    } else {
      EXPECT_NE(broken.status, simnet::DeliveryStatus::kDelivered);
    }
  }
}

// ---------------------------------------------------------------- retries --

TEST(Retries, RecoverProbesLostToTraffic) {
  const Topology t = topo::star(3, 2);
  simnet::FaultModel faults;
  faults.traffic_intensity = 0.25;
  const NodeId mapper_host = t.hosts().front();

  int hit_without = 0;
  int hit_with = 0;
  const int trials = 300;
  {
    simnet::Network net(t, simnet::CollisionModel::kCutThrough,
                        simnet::CostModel{}, faults, 9);
    probe::ProbeEngine engine(net, mapper_host);
    for (int i = 0; i < trials; ++i) {
      hit_without += engine.switch_probe(simnet::Route{-1}) ? 1 : 0;
    }
  }
  {
    simnet::Network net(t, simnet::CollisionModel::kCutThrough,
                        simnet::CostModel{}, faults, 9);
    probe::ProbeOptions options;
    options.retries = 3;
    probe::ProbeEngine engine(net, mapper_host, options);
    for (int i = 0; i < trials; ++i) {
      hit_with += engine.switch_probe(simnet::Route{-1}) ? 1 : 0;
    }
    // Retried attempts are counted as sent probes.
    EXPECT_GT(engine.counters().switch_probes,
              static_cast<std::uint64_t>(trials));
  }
  EXPECT_GT(hit_with, hit_without);
}

TEST(Retries, NoEffectOnAQuiescentNetwork) {
  const Topology t = topo::star(3, 2);
  simnet::Network net(t);
  probe::ProbeOptions options;
  options.retries = 5;
  probe::ProbeEngine engine(net, t.hosts().front(), options);
  EXPECT_TRUE(engine.switch_probe(simnet::Route{-1}));
  EXPECT_EQ(engine.counters().switch_probes, 1u);  // no retry triggered
}

}  // namespace
}  // namespace sanmap::routing
