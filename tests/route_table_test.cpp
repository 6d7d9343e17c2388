// The per-destination route table against two references.
//
//  * Hop counts: a small-n Floyd-Warshall over the up digraph plus an apex
//    search over every node — the all-pairs method the table replaced —
//    gives each host pair's shortest UP*/DOWN* length. Every walked route
//    must have exactly that length, under both the BFS (updown) and the
//    DFS-preorder orientation, on every corpus case and on 300 seeded
//    random fabrics; and every walk must visit no (switch, phase) state
//    twice and end at its destination.
//  * Read paths: everything that builds routes on read — the query engine,
//    table_for, distribute_tables and a snapshot encode/decode round trip —
//    must agree with for_each_route, pair by pair, on every corpus case.
//  * The optimizer: on every corpus case and the fig5 cluster, under every
//    engine, it never raises the maximum channel load and keeps every
//    pair's hop count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "routing/congestion.hpp"
#include "routing/deadlock.hpp"
#include "routing/distribute.hpp"
#include "routing/engine.hpp"
#include "routing/optimizer.hpp"
#include "routing/routes.hpp"
#include "service/query_engine.hpp"
#include "service/snapshot.hpp"
#include "service/snapshot_codec.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "verify/scenario_case.hpp"

namespace sanmap {
namespace {

namespace fs = std::filesystem;

constexpr int kFar = std::numeric_limits<int>::max() / 4;

/// Shortest UP*/DOWN* hop counts for every host pair, by Floyd-Warshall
/// over the up digraph of every node (hosts included) and, per pair, the
/// best apex: up(src, k) + down(k, dst), where down(k, dst) = up(dst, k)
/// because every cable is an up move one way and a down move the other.
std::vector<std::vector<int>> reference_hops(
    const topo::Topology& t, const routing::UpDownOrientation& orientation,
    const std::vector<topo::NodeId>& hosts) {
  const std::vector<topo::NodeId> nodes = t.nodes();
  const std::size_t n = nodes.size();
  std::vector<std::size_t> index(t.node_capacity(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    index[nodes[i]] = i;
  }
  std::vector<int> up(n * n, kFar);
  for (std::size_t i = 0; i < n; ++i) {
    up[i * n + i] = 0;
  }
  for (const topo::WireId w : t.wires()) {
    const topo::Wire& wire = t.wire(w);
    if (wire.a.node == wire.b.node) {
      continue;
    }
    const std::size_t a = index[wire.a.node];
    const std::size_t b = index[wire.b.node];
    if (orientation.goes_up(t, w, wire.a.node)) {
      up[a * n + b] = 1;
    } else {
      up[b * n + a] = 1;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        up[i * n + j] = std::min(up[i * n + j], up[i * n + k] + up[k * n + j]);
      }
    }
  }
  std::vector<std::vector<int>> hops(hosts.size(),
                                     std::vector<int>(hosts.size(), kFar));
  for (std::size_t s = 0; s < hosts.size(); ++s) {
    for (std::size_t d = 0; d < hosts.size(); ++d) {
      const std::size_t si = index[hosts[s]];
      const std::size_t di = index[hosts[d]];
      for (std::size_t k = 0; k < n; ++k) {
        hops[s][d] = std::min(hops[s][d], up[si * n + k] + up[di * n + k]);
      }
    }
  }
  return hops;
}

/// Holds every walked route of `routes` against the reference.
void expect_matches_reference(const topo::Topology& t,
                              const routing::RoutingResult& routes,
                              const std::string& label) {
  const std::vector<topo::NodeId> hosts = t.hosts();
  const auto want = reference_hops(t, routes.orientation, hosts);
  std::vector<std::size_t> at(t.node_capacity(), 0);
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    at[hosts[i]] = i;
  }
  std::size_t walked = 0;
  routes.routes.for_each_route([&](topo::NodeId src, topo::NodeId dst,
                                   const routing::HostRoute& route) {
    ++walked;
    EXPECT_EQ(route.hops(), want[at[src]][at[dst]])
        << label << ": " << t.name(src) << " -> " << t.name(dst);
    ASSERT_EQ(route.nodes.size(), route.wires.size() + 1) << label;
    EXPECT_EQ(route.nodes.back(), dst) << label;
    // (switch, phase) states: a switch entered before the first down move,
    // and after it.
    std::set<std::pair<topo::NodeId, bool>> states;
    bool down = false;
    for (std::size_t h = 0; h + 1 < route.wires.size(); ++h) {
      down = down || !routes.orientation.goes_up(t, route.wires[h],
                                                 route.nodes[h]);
      EXPECT_TRUE(states.insert({route.nodes[h + 1], down}).second)
          << label << ": " << t.name(src) << " -> " << t.name(dst)
          << " revisits " << t.name(route.nodes[h + 1]);
    }
  });
  EXPECT_EQ(walked, hosts.size() * (hosts.size() - 1)) << label;
  EXPECT_EQ(routes.routes.size(), walked) << label;
}

void expect_both_orientations_match(const topo::Topology& t,
                                    const std::string& label) {
  expect_matches_reference(
      t, routing::compute_routes(t, routing::EngineKind::kUpDown, {}, 3),
      label + " updown");
  expect_matches_reference(
      t, routing::compute_routes(t, routing::EngineKind::kDfs),
      label + " dfs");
}

std::size_t max_channel_load(const topo::Topology& t,
                             const routing::RoutingResult& routes) {
  const std::vector<std::size_t> load = routing::channel_loads(t, routes);
  return *std::max_element(load.begin(), load.end());
}

std::vector<std::pair<std::string, topo::Topology>> corpus() {
  std::vector<fs::path> files;
  for (const auto& entry :
       fs::directory_iterator(fs::path(SANMAP_CORPUS_DIR))) {
    if (entry.path().extension() == ".sancase") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<std::pair<std::string, topo::Topology>> cases;
  for (const fs::path& path : files) {
    // The component a mapper on the first host would discover, compacted.
    const topo::Topology fabric = verify::read_case_file(path.string()).network;
    cases.emplace_back(
        path.stem().string(),
        topo::component_of(fabric, fabric.hosts().front()).compacted());
  }
  return cases;
}

TEST(RouteTableReference, CorpusHopCountsMatchFloydWarshall) {
  const auto cases = corpus();
  ASSERT_FALSE(cases.empty());
  for (const auto& [name, t] : cases) {
    expect_both_orientations_match(t, name);
  }
}

TEST(RouteTableReference, RandomFabricsHopCountsMatchFloydWarshall) {
  common::Rng rng(20250117);
  for (int trial = 0; trial < 300; ++trial) {
    const int switches = 3 + static_cast<int>(rng.below(10));
    const int hosts = 2 + static_cast<int>(rng.below(
                              static_cast<std::uint64_t>(switches)));
    const int extra = static_cast<int>(rng.below(4));
    common::Rng topo_rng(rng.next());
    const topo::Topology t =
        topo::random_irregular(switches, hosts, extra, topo_rng);
    expect_both_orientations_match(t, "trial " + std::to_string(trial));
    if (HasFailure()) {
      return;
    }
  }
}

TEST(RouteTableOptimizer, KeepsHopsAndNeverRaisesTheMaxOnTheCorpus) {
  auto cases = corpus();
  cases.emplace_back("fig5", topo::now_cluster());
  for (const auto& [name, t] : cases) {
    for (const auto& [kind, seed] :
         {std::pair{routing::EngineKind::kUpDown, std::uint64_t{1}},
          std::pair{routing::EngineKind::kUpDown, std::uint64_t{7}},
          std::pair{routing::EngineKind::kDfs, std::uint64_t{1}}}) {
      SCOPED_TRACE(name + " " + routing::to_string(kind) + " seed " +
                   std::to_string(seed));
      routing::RoutingResult routes =
          routing::compute_routes(t, kind, {}, seed);
      const std::size_t before = max_channel_load(t, routes);
      std::vector<int> hops;
      routes.routes.for_each_route(
          [&](topo::NodeId, topo::NodeId, const routing::HostRoute& route) {
            hops.push_back(route.hops());
          });
      const auto report = routing::optimize_routes(t, routes);
      EXPECT_EQ(report.max_load_before, before);
      EXPECT_LE(report.max_load_after, report.max_load_before);
      EXPECT_EQ(report.max_load_after, max_channel_load(t, routes));
      EXPECT_TRUE(routing::summarize(routes).compliant);
      std::size_t k = 0;
      routes.routes.for_each_route(
          [&](topo::NodeId, topo::NodeId, const routing::HostRoute& route) {
            ASSERT_LT(k, hops.size());
            EXPECT_EQ(route.hops(), hops[k++]);
          });
      EXPECT_EQ(k, hops.size());
    }
  }
}

bool same_route(const routing::HostRoute& a, const routing::HostRoute& b) {
  return a.nodes == b.nodes && a.wires == b.wires && a.turns == b.turns;
}

TEST(RouteTableReadPaths, AgreeWithForEachRouteOnTheCorpus) {
  for (const auto& [name, fabric] : corpus()) {
    SCOPED_TRACE(name);
    service::SnapshotOptions options;
    options.source = "test";
    const service::MapSnapshot snapshot =
        service::build_snapshot(fabric, options, common::SimTime{});
    const topo::Topology& t = snapshot.map;
    const routing::RoutingResult& routes = snapshot.routes;
    const service::MapSnapshot decoded =
        service::decode_snapshot(service::encode_snapshot(snapshot));
    ASSERT_EQ(decoded.routes.routes.size(), routes.routes.size());

    // Per source: its table_for, and the table bytes distribution ships.
    std::vector<std::vector<routing::HostRoute>> by_source(t.node_capacity());
    std::size_t table_bytes = 0;
    const topo::NodeId master = t.hosts().front();
    routes.routes.for_each_route([&](topo::NodeId src, topo::NodeId dst,
                                     const routing::HostRoute& route) {
      by_source[src].push_back(route);
      if (src != master) {
        table_bytes += 3 + route.turns.size();
      }
      const auto answer = service::RouteQueryEngine::route_on(
          snapshot, t.name(src), t.name(dst));
      EXPECT_TRUE(answer.found);
      EXPECT_EQ(answer.hops, route.hops());
      EXPECT_EQ(answer.turns, route.turns);
      EXPECT_TRUE(same_route(decoded.routes.route(src, dst), route))
          << t.name(src) << " -> " << t.name(dst);
    });
    for (const topo::NodeId src : t.hosts()) {
      const auto table = routes.table_for(src);
      ASSERT_EQ(table.size(), by_source[src].size());
      for (std::size_t k = 0; k < table.size(); ++k) {
        EXPECT_TRUE(same_route(table[k], by_source[src][k]));
      }
    }
    simnet::Network net(t);
    const routing::DistributionResult shipped =
        routing::distribute_tables(net, routes, master);
    EXPECT_TRUE(shipped.complete);
    EXPECT_EQ(shipped.messages, t.num_hosts() - 1);
    EXPECT_EQ(shipped.bytes, table_bytes);
  }
}

}  // namespace
}  // namespace sanmap
