#include "analysis/lints.hpp"

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>

#include "common/thread_pool.hpp"
#include "routing/congestion.hpp"
#include "topology/algorithms.hpp"

namespace sanmap::analysis {

namespace {

/// SL403's parallel trunks: the cables joining each pair of distinct
/// switches (pair ascending), ascending by wire id. Pairs joined by one
/// cable are kept; the lint skips them.
using ParallelTrunks =
    std::map<std::pair<topo::NodeId, topo::NodeId>, std::vector<topo::WireId>>;

ParallelTrunks parallel_trunks(const topo::Topology& topo) {
  ParallelTrunks trunks;
  for (const topo::WireId w : topo.wires()) {
    const topo::Wire& wire = topo.wire(w);
    if (wire.a.node != wire.b.node && topo.is_switch(wire.a.node) &&
        topo.is_switch(wire.b.node)) {
      trunks[std::minmax(wire.a.node, wire.b.node)].push_back(w);
    }
  }
  return trunks;
}

}  // namespace

void lint_fabric(const topo::Topology& topo, DiagnosticReport& report) {
  for (const topo::NodeId n : topo.nodes()) {
    if (topo.degree(n) == 0) {
      report.add("SL307", topo.name(n),
                 std::string(topo.is_host(n) ? "host" : "switch") +
                     " has no live wires",
                 "unreachable by every probe and every route");
    }
  }
  // Informational: mappers legitimately map one component of a larger
  // fabric.
  std::vector<int> component_of;
  if (const int count = topo::components(topo, component_of); count > 1) {
    report.add("SL308", "",
               std::to_string(count) +
                   " connected components: only the mapper's component is "
                   "mappable",
               "");
  }
}

bool lint_route(const topo::Topology& topo, topo::NodeId src, topo::NodeId dst,
                const routing::HostRoute& route, DiagnosticReport& report) {
  const std::size_t before = report.errors();
  const auto name_of = [&](topo::NodeId n) {
    return n < topo.node_capacity() && topo.node_alive(n)
               ? topo.name(n)
               : "node " + std::to_string(n);
  };
  // Formatted only when a finding names it: clean routes cost no strings.
  const auto loc = [&] {
    return "route " + name_of(src) + "->" + name_of(dst);
  };

  for (const topo::NodeId endpoint : {src, dst}) {
    if (endpoint >= topo.node_capacity() || !topo.node_alive(endpoint) ||
        !topo.is_host(endpoint)) {
      report.add("SL102", loc(),
                 "endpoint " + std::to_string(endpoint) +
                     " is not a live host",
                 "recompute routes on the current map");
    }
  }
  if (route.nodes.size() != route.wires.size() + 1 || route.nodes.empty() ||
      route.nodes.front() != src || route.nodes.back() != dst) {
    report.add("SL103", loc(),
               "path shape is inconsistent (" +
                   std::to_string(route.nodes.size()) + " nodes, " +
                   std::to_string(route.wires.size()) + " wires)",
               "");
    return report.errors() == before;  // the walk below assumes the shape
  }
  // One pass over the hops: each wire must be live, not a loopback, and
  // join the path's consecutive nodes; and the turn word must reproduce
  // the path (sec 2.2 relative addressing), so the NIC-facing table and the
  // hop path describe the same route. Direction is resolved without
  // branching: it is data, and this loop runs once per hop of every route.
  const std::size_t turns = route.wires.empty() ? 0 : route.wires.size() - 1;
  bool reproduces = route.turns.size() == turns;
  topo::Port in_port = 0;
  for (std::size_t i = 0; i < route.wires.size(); ++i) {
    const topo::WireId w = route.wires[i];
    if (!topo.wire_alive(w)) [[unlikely]] {
      report.add("SL103", loc() + " hop " + std::to_string(i),
                 "wire " + std::to_string(w) + " is dead or nonexistent",
                 "recompute routes on the current map");
      return report.errors() == before;
    }
    const topo::Wire& wire = topo.wire(w);
    if (wire.a.node == wire.b.node) [[unlikely]] {
      report.add("SL104", loc() + " hop " + std::to_string(i),
                 "wire " + std::to_string(w) + " is a self-loop cable",
                 "no valid route uses a loopback cable");
      return report.errors() == before;
    }
    const topo::NodeId from = route.nodes[i];
    const topo::NodeId to = route.nodes[i + 1];
    const bool a_first = wire.a.node == from;
    const topo::PortRef& near = a_first ? wire.a : wire.b;
    const topo::PortRef& far = a_first ? wire.b : wire.a;
    // A live wire's ends are live nodes, so joining them is the whole check.
    if (near.node != from || far.node != to) [[unlikely]] {
      report.add("SL103", loc() + " hop " + std::to_string(i),
                 "wire " + std::to_string(w) + " does not connect " +
                     name_of(from) + " to " + name_of(to),
                 "recompute routes on the current map");
      return report.errors() == before;
    }
    reproduces = reproduces &&
                 (i == 0 || route.turns[i - 1] == near.port - in_port);
    in_port = far.port;
  }
  const auto turn_at = [&](std::size_t i) {
    const topo::Wire& in_wire = topo.wire(route.wires[i - 1]);
    const topo::Wire& out_wire = topo.wire(route.wires[i]);
    const topo::Port entry = in_wire.opposite(route.nodes[i - 1]).port;
    const topo::Port exit = out_wire.a.node == route.nodes[i]
                                ? out_wire.a.port
                                : out_wire.b.port;
    return static_cast<simnet::Turn>(exit - entry);
  };
  if (!reproduces) {
    simnet::Route expected;
    for (std::size_t i = 1; i <= turns; ++i) {
      expected.push_back(turn_at(i));
    }
    report.add("SL105", loc(),
               "turn word " + simnet::to_string(route.turns) +
                   " does not reproduce the hop path (expected " +
                   simnet::to_string(expected) + ")",
               "re-emit the table from the hop paths");
  }
  return report.errors() == before;
}

void lint_route_quality(const topo::Topology& topo,
                        const routing::RoutingResult& routes,
                        const LintOptions& options, DiagnosticReport& report,
                        common::CallPool& pool) {
  // One pass over the trees gathers every per-pair fact, in blocks of
  // destinations; findings are then emitted in (src, dst) key order.
  const routing::RouteTable& table = routes.routes;
  using Key = std::pair<topo::NodeId, topo::NodeId>;
  struct Facts {
    std::vector<Key> missing;
    std::vector<std::pair<Key, int>> too_long;
    std::size_t non_minimal = 0;
    int worst_extra = 0;
    Key worst_key;
    std::pair<int, int> worst_hops;  // (route, BFS)
    // SL403's traffic oracle: route traversals per directed channel. A
    // block's routes cross a channel at most twice each (once per phase),
    // far below 2^32 for any fabric a table fits in memory for.
    std::vector<std::uint32_t> loads;

    /// Takes a non-minimal route as the worst if it is longer past its BFS
    /// distance, or as long and first in key order.
    void consider(int extra, const Key& key, std::pair<int, int> hops) {
      if (extra > worst_extra || (extra == worst_extra && key < worst_key)) {
        worst_extra = extra;
        worst_key = key;
        worst_hops = hops;
      }
    }
  };
  const auto live_host = [&](topo::NodeId n) {
    return n < topo.node_capacity() && topo.node_alive(n) && topo.is_host(n);
  };
  constexpr std::uint32_t kBlock = routing::RouteTable::kBlock;
  const auto n = static_cast<std::uint32_t>(table.hosts().size());
  std::vector<Facts> blocks((n + kBlock - 1) / kBlock);
  pool.run(blocks.size(), [&](std::size_t b) {
    Facts& facts = blocks[b];
    facts.loads.assign(2 * topo.wire_capacity(), 0);
    const auto carry = [&](const routing::RouteTable::Hop& hop,
                           std::size_t count) {
      facts.loads[hop.channel] += static_cast<std::uint32_t>(count);
    };
    routing::RouteTable::Tree tree;
    const auto begin = static_cast<std::uint32_t>(b) * kBlock;
    for (std::uint32_t j = begin; j < std::min(n, begin + kBlock); ++j) {
      table.tree(j, tree);
      routing::for_each_loaded_hop(table, tree, carry);
      const topo::NodeId dst = table.hosts()[j];
      // The fabric is undirected, so one search from the destination gives
      // every source's BFS distance to it.
      const std::vector<int> dist = live_host(dst)
                                        ? topo::bfs_distances(topo, dst)
                                        : std::vector<int>();
      for (std::uint32_t i = 0; i < n; ++i) {
        const topo::NodeId src = table.hosts()[i];
        if (i == j) {
          continue;
        }
        if (tree.routed[i] == 0) {
          if (live_host(src) && live_host(dst)) {
            facts.missing.emplace_back(src, dst);
          }
          continue;
        }
        const int hops = static_cast<int>(1 + tree.len[table.start(i)]);
        const int shortest = dist.empty() ? -1 : dist[src];
        if (shortest >= 0 && hops > shortest) {
          ++facts.non_minimal;
          facts.consider(hops - shortest, {src, dst}, {hops, shortest});
        }
        if (options.hop_limit > 0 && hops > options.hop_limit) {
          facts.too_long.push_back({{src, dst}, hops});
        }
      }
    }
  });
  Facts all;
  std::vector<std::size_t> loads(2 * topo.wire_capacity(), 0);
  for (const Facts& facts : blocks) {
    all.missing.insert(all.missing.end(), facts.missing.begin(),
                       facts.missing.end());
    all.too_long.insert(all.too_long.end(), facts.too_long.begin(),
                        facts.too_long.end());
    if (facts.non_minimal > 0) {
      all.non_minimal += facts.non_minimal;
      all.consider(facts.worst_extra, facts.worst_key, facts.worst_hops);
    }
    for (std::size_t c = 0; c < loads.size(); ++c) {
      loads[c] += facts.loads[c];
    }
  }
  // Live hosts the table does not know have no routes at all.
  const auto hosts = topo.hosts();
  for (const topo::NodeId a : hosts) {
    for (const topo::NodeId b : hosts) {
      if (a != b && (table.host_index(a) == routing::RouteTable::kNone ||
                     table.host_index(b) == routing::RouteTable::kNone)) {
        all.missing.emplace_back(a, b);
      }
    }
  }

  // SL402: every ordered pair of live hosts must have a route.
  std::sort(all.missing.begin(), all.missing.end());
  for (const auto& [src, dst] : all.missing) {
    report.add("SL402", "route " + topo.name(src) + "->" + topo.name(dst),
               "no route for a live host pair",
               "recompute the table or check reachability");
  }

  if (routes.routes.size() < options.min_routes_for_quality) {
    return;
  }

  // SL404: routes over the hop limit, one finding each.
  std::sort(all.too_long.begin(), all.too_long.end());
  for (const auto& [key, hops] : all.too_long) {
    report.add("SL404",
               "route " + topo.name(key.first) + "->" + topo.name(key.second),
               std::to_string(hops) + " hops exceeds the limit of " +
                   std::to_string(options.hop_limit),
               "raise --hop-limit or re-root the orientation");
  }
  // SL401: routes longer than the plain BFS distance. Legitimate under
  // UP*/DOWN* (the shortest path may be non-compliant), hence info-level,
  // aggregated into one finding naming the worst route (the first in key
  // order among equals).
  if (all.non_minimal > 0) {
    report.add("SL401", "",
               std::to_string(all.non_minimal) + " of " +
                   std::to_string(routes.routes.size()) +
                   " routes are longer than the BFS shortest path (worst " +
                   topo.name(all.worst_key.first) + "->" +
                   topo.name(all.worst_key.second) + ": " +
                   std::to_string(all.worst_hops.first) + " hops vs BFS " +
                   std::to_string(all.worst_hops.second) + ")",
               "expected where the shortest path is not UP*/DOWN* compliant");
  }

  // SL403: directed-channel load imbalance. Mean-relative thresholds are
  // the wrong instrument here — on any hierarchical fabric the root
  // channels structurally carry all cross-subtree traffic (invariant under
  // the load-balance seed), so "max >> mean" is a property of UP*/DOWN*,
  // not a defect. What IS actionable:
  //  * skew across redundant parallel cables between the same two switches
  //    (the seeded tie-break and the optimizer's cable pass exist to spread
  //    those), and
  //  * a single channel funneling the majority of all routes.
  // Parallel-cable skew is judged on each cable's joint (both-direction)
  // load. One table entry can carry a trunk direction whole, so
  // per-direction counts cannot always be even, and a direction-split deal
  // (all a->b traffic on one cable, all b->a on its sibling) is balanced.
  for (const auto& [endpoints, cables] : parallel_trunks(topo)) {
    if (cables.size() < 2) {
      continue;
    }
    std::size_t joint_max = 0;
    std::size_t joint_min = std::numeric_limits<std::size_t>::max();
    topo::WireId hottest = topo::kInvalidWire;
    for (const topo::WireId w : cables) {
      const std::size_t joint = loads[routing::channel_slot(w, true)] +
                                loads[routing::channel_slot(w, false)];
      if (joint > joint_max) {
        joint_max = joint;
        hottest = w;
      }
      joint_min = std::min(joint_min, joint);
    }
    if (static_cast<double>(joint_max) >
        options.load_imbalance_threshold *
            static_cast<double>(std::max<std::size_t>(joint_min, 1))) {
      std::ostringstream oss;
      oss << "parallel cables " << topo.name(endpoints.first) << "<->"
          << topo.name(endpoints.second) << ": wire " << hottest
          << " carries " << joint_max
          << " routes (both directions) while a sibling carries "
          << joint_min;
      report.add("SL403", "", oss.str(),
                 "reseed the load-balance choice or optimize the table to "
                 "spread the trunk");
    }
  }
  // Funneling: one channel on the majority of all routes means the
  // orientation has collapsed the fabric onto a single pipe.
  // The first strictly hottest slot: ties go to the smallest (wire,
  // a-to-b) key.
  std::size_t max_load = 0;
  std::pair<topo::WireId, bool> hottest{topo::kInvalidWire, false};
  for (std::size_t slot = 0; slot < loads.size(); ++slot) {
    if (loads[slot] > max_load) {
      max_load = loads[slot];
      hottest = {static_cast<topo::WireId>(slot / 2), slot % 2 != 0};
    }
  }
  if (max_load * 2 > routes.routes.size() && routes.routes.size() > 0) {
    const topo::Wire& wire = topo.wire(hottest.first);
    const topo::PortRef from = hottest.second ? wire.a : wire.b;
    const topo::PortRef to = hottest.second ? wire.b : wire.a;
    std::ostringstream oss;
    oss << "channel " << topo.name(from.node) << "->" << topo.name(to.node)
        << " (wire " << hottest.first << ") carries " << max_load << " of "
        << routes.routes.size() << " routes";
    report.add("SL403", "", oss.str(),
               "re-root the orientation to spread cross traffic");
  }
}

}  // namespace sanmap::analysis
