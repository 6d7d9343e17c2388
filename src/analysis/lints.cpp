#include "analysis/lints.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <sstream>

#include "common/thread_pool.hpp"
#include "routing/congestion.hpp"
#include "topology/algorithms.hpp"

namespace sanmap::analysis {

namespace {

std::string node_label(const FabricView& view, topo::NodeId n) {
  if (n < view.nodes.size() && !view.nodes[n].name.empty()) {
    return view.nodes[n].name;
  }
  return "node " + std::to_string(n);
}

std::string end_text(const FabricView& view, const topo::PortRef& end) {
  std::ostringstream oss;
  oss << node_label(view, end.node) << " port " << end.port;
  return oss.str();
}

bool end_in_range(const FabricView& view, const topo::PortRef& end) {
  return end.node < view.nodes.size() && view.nodes[end.node].alive;
}

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

FabricView view_of(const topo::Topology& topo) {
  FabricView view;
  view.nodes.resize(topo.node_capacity());
  for (topo::NodeId n = 0; n < topo.node_capacity(); ++n) {
    view.nodes[n].alive = topo.node_alive(n);
    if (!view.nodes[n].alive) {
      continue;
    }
    view.nodes[n].kind = topo.kind(n);
    view.nodes[n].name = topo.name(n);
    for (topo::Port p = 0; p < topo.port_count(n); ++p) {
      if (const auto w = topo.wire_at(n, p)) {
        view.port_claims.emplace_back(topo::PortRef{n, p}, *w);
      }
    }
  }
  view.wires.resize(topo.wire_capacity());
  for (topo::WireId w = 0; w < topo.wire_capacity(); ++w) {
    view.wires[w].alive = topo.wire_alive(w);
    if (view.wires[w].alive) {
      view.wires[w].a = topo.wire(w).a;
      view.wires[w].b = topo.wire(w).b;
    }
  }
  return view;
}

void lint_fabric(const FabricView& view, DiagnosticReport& report) {
  // Per-(node, port) usage across live wire ends, for SL305.
  std::map<topo::PortRef, int> end_use;
  // Live wire ends per node, for SL304/SL307.
  std::vector<int> incident(view.nodes.size(), 0);

  for (topo::WireId w = 0; w < view.wires.size(); ++w) {
    const FabricView::WireView& wire = view.wires[w];
    if (!wire.alive) {
      continue;
    }
    for (const topo::PortRef& end : {wire.a, wire.b}) {
      if (!end_in_range(view, end)) {
        report.add("SL301", "wire " + std::to_string(w),
                   std::string("endpoint references ") +
                       (end.node < view.nodes.size() ? "dead" : "nonexistent") +
                       " node " + std::to_string(end.node),
                   "disconnect the wire or revive the node");
        continue;
      }
      const FabricView::NodeView& node = view.nodes[end.node];
      const topo::Port limit = node.kind == topo::NodeKind::kSwitch
                                   ? topo::kSwitchPorts
                                   : topo::kHostPorts;
      if (end.port < 0 || end.port >= limit) {
        std::ostringstream oss;
        oss << "port " << end.port << " on "
            << (node.kind == topo::NodeKind::kSwitch
                    ? "an 8-port crossbar"
                    : "a single-port host")
            << " (" << node_label(view, end.node) << ")";
        report.add("SL302", "wire " + std::to_string(w), oss.str(),
                   "switch ports are 0..7, host ports are 0");
        continue;
      }
      ++end_use[end];
      ++incident[end.node];
      // The node-side port table must claim this exact wire back.
      const bool claimed = std::any_of(
          view.port_claims.begin(), view.port_claims.end(),
          [&](const auto& claim) {
            return claim.first == end && claim.second == w;
          });
      if (!claimed) {
        report.add("SL303", end_text(view, end),
                   "wire " + std::to_string(w) +
                       " lists this endpoint but the node's port table does "
                       "not carry it",
                   "rebuild the port table or drop the wire record");
      }
    }
  }

  for (const auto& [end, count] : end_use) {
    if (count > 1) {
      report.add("SL305", end_text(view, end),
                 std::to_string(count) + " live wires share one port",
                 "a port carries at most one wire (paper sec 2.1)");
    }
  }

  // Port claims that point at dead or mismatched wires are the other half
  // of endpoint asymmetry.
  for (const auto& [end, w] : view.port_claims) {
    if (!end_in_range(view, end)) {
      continue;  // already reported via the wire side or irrelevant
    }
    if (w >= view.wires.size() || !view.wires[w].alive ||
        (view.wires[w].a != end && view.wires[w].b != end)) {
      report.add("SL303", end_text(view, end),
                 "port table claims wire " + std::to_string(w) +
                     " but that wire does not end here",
                 "rebuild the port table or drop the claim");
    }
  }

  std::map<std::string, int> host_names;
  for (topo::NodeId n = 0; n < view.nodes.size(); ++n) {
    const FabricView::NodeView& node = view.nodes[n];
    if (!node.alive) {
      continue;
    }
    if (node.kind == topo::NodeKind::kHost) {
      if (incident[n] > 1) {
        report.add("SL304", node_label(view, n),
                   std::to_string(incident[n]) +
                       " wires on a single-port host interface",
                   "hosts have exactly one network port (paper sec 2.1)");
      }
      if (node.name.empty()) {
        report.add("SL306", "node " + std::to_string(n),
                   "host has no name: hosts must be uniquely identifiable "
                   "(paper sec 2.3)",
                   "assign a unique host name");
      } else {
        ++host_names[node.name];
      }
    }
    if (incident[n] == 0) {
      report.add("SL307", node_label(view, n),
                 std::string(node.kind == topo::NodeKind::kHost ? "host"
                                                                : "switch") +
                     " has no live wires",
                 "unreachable by every probe and every route");
    }
  }
  for (const auto& [name, count] : host_names) {
    if (count > 1) {
      report.add("SL306", name,
                 std::to_string(count) +
                     " live hosts share one name: label equivalence cannot "
                     "identify them",
                 "host names must be unique (paper sec 2.3)");
    }
  }

  // Connectivity over the view's live wires (SL308, informational: mappers
  // legitimately map one component of a larger fabric).
  std::vector<int> component(view.nodes.size(), -1);
  int components = 0;
  std::vector<std::vector<topo::NodeId>> adjacency(view.nodes.size());
  for (const FabricView::WireView& wire : view.wires) {
    if (wire.alive && end_in_range(view, wire.a) &&
        end_in_range(view, wire.b)) {
      adjacency[wire.a.node].push_back(wire.b.node);
      adjacency[wire.b.node].push_back(wire.a.node);
    }
  }
  for (topo::NodeId start = 0; start < view.nodes.size(); ++start) {
    if (!view.nodes[start].alive || component[start] != -1) {
      continue;
    }
    std::deque<topo::NodeId> queue{start};
    component[start] = components;
    while (!queue.empty()) {
      const topo::NodeId n = queue.front();
      queue.pop_front();
      for (const topo::NodeId nb : adjacency[n]) {
        if (component[nb] == -1) {
          component[nb] = components;
          queue.push_back(nb);
        }
      }
    }
    ++components;
  }
  if (components > 1) {
    report.add("SL308", "",
               std::to_string(components) +
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
                        const LintOptions& options,
                        DiagnosticReport& report) {
  common::CallPool pool;
  lint_route_quality(topo, routes, options, report, pool);
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
  constexpr std::uint32_t kBlock = 64;
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
