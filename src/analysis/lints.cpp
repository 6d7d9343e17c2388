#include "analysis/lints.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>
#include <sstream>

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

/// SL102..SL105 for one route. Returns true when it added no finding.
bool lint_route_structure_one(
    const topo::Topology& topo,
    const std::pair<topo::NodeId, topo::NodeId>& key,
    const routing::HostRoute& route, DiagnosticReport& report) {
  const std::size_t before = report.errors();
  std::ostringstream where;
  const auto name_of = [&](topo::NodeId n) {
    return n < topo.node_capacity() && topo.node_alive(n)
               ? topo.name(n)
               : "node " + std::to_string(n);
  };
  where << "route " << name_of(key.first) << "->" << name_of(key.second);
  const std::string loc = where.str();

  for (const topo::NodeId endpoint : {key.first, key.second}) {
    if (endpoint >= topo.node_capacity() || !topo.node_alive(endpoint) ||
        !topo.is_host(endpoint)) {
      report.add("SL102", loc,
                 "endpoint " + std::to_string(endpoint) +
                     " is not a live host",
                 "recompute routes on the current map");
    }
  }
  if (route.nodes.size() != route.wires.size() + 1 || route.nodes.empty() ||
      route.nodes.front() != key.first || route.nodes.back() != key.second) {
    report.add("SL103", loc,
               "path shape is inconsistent (" +
                   std::to_string(route.nodes.size()) + " nodes, " +
                   std::to_string(route.wires.size()) + " wires)",
               "");
    return report.errors() == before;  // the walk below assumes the shape
  }
  bool walk_ok = true;
  for (std::size_t i = 0; i < route.wires.size() && walk_ok; ++i) {
    const topo::WireId w = route.wires[i];
    if (w >= topo.wire_capacity() || !topo.wire_alive(w)) {
      report.add("SL103", loc + " hop " + std::to_string(i),
                 "wire " + std::to_string(w) + " is dead or nonexistent",
                 "recompute routes on the current map");
      walk_ok = false;
      break;
    }
    const topo::Wire& wire = topo.wire(w);
    if (wire.a.node == wire.b.node) {
      report.add("SL104", loc + " hop " + std::to_string(i),
                 "wire " + std::to_string(w) + " is a self-loop cable",
                 "no valid route uses a loopback cable");
      walk_ok = false;
      break;
    }
    const topo::NodeId from = route.nodes[i];
    const topo::NodeId to = route.nodes[i + 1];
    const bool connects = (wire.a.node == from && wire.b.node == to) ||
                          (wire.b.node == from && wire.a.node == to);
    if (!connects || !topo.node_alive(from) || !topo.node_alive(to)) {
      report.add("SL103", loc + " hop " + std::to_string(i),
                 "wire " + std::to_string(w) + " does not connect " +
                     name_of(from) + " to " + name_of(to),
                 "recompute routes on the current map");
      walk_ok = false;
    }
  }
  if (!walk_ok) {
    return report.errors() == before;
  }
  // The turn word must reproduce the path (sec 2.2 relative addressing):
  // the NIC-facing table and the hop path must describe the same route.
  simnet::Route expected;
  for (std::size_t i = 1; i < route.wires.size(); ++i) {
    const topo::Wire& in_wire = topo.wire(route.wires[i - 1]);
    const topo::Wire& out_wire = topo.wire(route.wires[i]);
    const topo::Port in_port = in_wire.opposite(route.nodes[i - 1]).port;
    const topo::Port out_port = out_wire.a.node == route.nodes[i]
                                    ? out_wire.a.port
                                    : out_wire.b.port;
    expected.push_back(out_port - in_port);
  }
  if (expected != route.turns) {
    report.add("SL105", loc,
               "turn word " + simnet::to_string(route.turns) +
                   " does not reproduce the hop path (expected " +
                   simnet::to_string(expected) + ")",
               "re-emit the table from the hop paths");
  }
  return report.errors() == before;
}

/// SL403's parallel-cable index: directed switch-to-switch channels grouped
/// by (from, to) node pair, ascending by wire id within a group. The bool is
/// channel direction — true when the wire's `a` end is the group's `from`.
using ParallelCableGroups =
    std::map<std::pair<topo::NodeId, topo::NodeId>,
             std::vector<std::pair<topo::WireId, bool>>>;

ParallelCableGroups parallel_cable_groups(const topo::Topology& topo) {
  ParallelCableGroups parallel;
  for (const topo::WireId w : topo.wires()) {
    const topo::Wire& wire = topo.wire(w);
    if (topo.is_switch(wire.a.node) && topo.is_switch(wire.b.node)) {
      parallel[{wire.a.node, wire.b.node}].emplace_back(w, true);
      parallel[{wire.b.node, wire.a.node}].emplace_back(w, false);
    }
  }
  return parallel;
}

/// SL403's traffic oracle: route traversals per directed channel, keyed by
/// (wire, a-to-b). Zero-count channels are absent.
using ChannelLoads = std::map<std::pair<topo::WireId, bool>, std::size_t>;

ChannelLoads channel_loads(const topo::Topology& topo,
                           const routing::RoutingResult& routes) {
  ChannelLoads load;
  for (const auto& [key, route] : routes.routes) {
    for (std::size_t i = 0; i < route.wires.size(); ++i) {
      const topo::Wire& wire = topo.wire(route.wires[i]);
      load[{route.wires[i], wire.a.node == route.nodes[i]}] += 1;
    }
  }
  return load;
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

bool lint_route_structure(const topo::Topology& topo,
                          const routing::RoutingResult& routes,
                          DiagnosticReport& report) {
  bool sound = true;
  for (const auto& [key, route] : routes.routes) {
    sound = lint_route_structure_one(topo, key, route, report) && sound;
  }
  return sound;
}

void lint_route_quality(const topo::Topology& topo,
                        const routing::RoutingResult& routes,
                        const LintOptions& options,
                        DiagnosticReport& report) {
  // SL402: every ordered pair of live hosts must have a route.
  const auto hosts = topo.hosts();
  for (const topo::NodeId src : hosts) {
    for (const topo::NodeId dst : hosts) {
      if (src != dst &&
          routes.routes.find({src, dst}) == routes.routes.end()) {
        report.add("SL402",
                   "route " + topo.name(src) + "->" + topo.name(dst),
                   "no route for a live host pair",
                   "recompute the table or check reachability");
      }
    }
  }

  if (routes.routes.size() < options.min_routes_for_quality) {
    return;
  }

  // SL401: routes longer than the plain BFS distance. Legitimate under
  // UP*/DOWN* (the shortest path may be non-compliant), hence info-level,
  // aggregated into one finding.
  std::size_t non_minimal = 0;
  int worst_extra = 0;
  std::string worst;
  // BFS distances are cached across the consecutive routes that share a
  // source (the route map is key-ordered).
  topo::NodeId bfs_src = topo::kInvalidNode;
  std::vector<int> dist;
  for (const auto& [key, route] : routes.routes) {
    if (key.first != bfs_src) {
      bfs_src = key.first;
      dist = topo::bfs_distances(topo, bfs_src);
    }
    const int shortest = dist[key.second];
    if (shortest >= 0 && route.hops() > shortest) {
      ++non_minimal;
      if (route.hops() - shortest > worst_extra) {
        worst_extra = route.hops() - shortest;
        worst = topo.name(key.first) + "->" + topo.name(key.second) + ": " +
                std::to_string(route.hops()) + " hops vs BFS " +
                std::to_string(shortest);
      }
    }
    if (options.hop_limit > 0 && route.hops() > options.hop_limit) {
      report.add("SL404",
                 "route " + topo.name(key.first) + "->" +
                     topo.name(key.second),
                 std::to_string(route.hops()) + " hops exceeds the limit of " +
                     std::to_string(options.hop_limit),
                 "raise --hop-limit or re-root the orientation");
    }
  }
  if (non_minimal > 0) {
    report.add("SL401", "",
               std::to_string(non_minimal) + " of " +
                   std::to_string(routes.routes.size()) +
                   " routes are longer than the BFS shortest path (worst " +
                   worst + ")",
               "expected where the shortest path is not UP*/DOWN* compliant");
  }

  // SL403: directed-channel load imbalance. Mean-relative thresholds are
  // the wrong instrument here — on any hierarchical fabric the root
  // channels structurally carry all cross-subtree traffic (invariant under
  // the load-balance seed), so "max >> mean" is a property of UP*/DOWN*,
  // not a defect. What IS actionable:
  //  * skew across redundant parallel cables between the same two switches
  //    (the seed's tie-break exists precisely to spread those), and
  //  * a single channel funneling the majority of all routes.
  const ChannelLoads loads = channel_loads(topo, routes);
  const auto channel_load = [&](topo::WireId w, bool a_to_b) {
    const auto it = loads.find({w, a_to_b});
    return it == loads.end() ? std::size_t{0} : it->second;
  };
  // Parallel-cable skew. When the engine (or the route optimizer) declared
  // a per-cable assignment for the whole group, the lint audits the table
  // against that declaration — the plan is the engine's balancing *intent*,
  // and a deliberately direction-split assignment (all A->B traffic on one
  // cable, all B->A on its sibling) is jointly balanced even though each
  // directed channel looks skewed in isolation. Re-deriving a
  // per-direction uniformity expectation here used to flag exactly those
  // optimizer-balanced tables. Without a covering plan, the historical
  // heuristic applies: the seeded tie-break should keep per-direction
  // loads within a constant factor.
  const auto& plan = routes.meta.cable_plan;
  const auto declared = [&](topo::WireId w,
                            bool a_to_b) -> const std::size_t* {
    const auto it = plan.find({w, a_to_b});
    return it == plan.end() ? nullptr : &it->second;
  };
  for (const auto& [endpoints, channels] : parallel_cable_groups(topo)) {
    if (channels.size() < 2) {
      continue;
    }
    bool planned = !plan.empty();
    for (const auto& [w, a_to_b] : channels) {
      planned = planned && declared(w, a_to_b) != nullptr;
    }
    if (planned) {
      // (a) The table must match the declaration channel by channel.
      for (const auto& [w, a_to_b] : channels) {
        const std::size_t actual = channel_load(w, a_to_b);
        const std::size_t want = *declared(w, a_to_b);
        if (actual != want) {
          std::ostringstream oss;
          oss << "parallel cables " << topo.name(endpoints.first) << "->"
              << topo.name(endpoints.second) << ": wire " << w << " carries "
              << actual << " routes but the engine declared " << want;
          report.add("SL403", "", oss.str(),
                     "the table diverged from the engine's cable plan; "
                     "recompute the table");
        }
      }
      // (b) The declared plan itself must be jointly balanced. Joint loads
      // are direction-agnostic, so emit once per unordered switch pair.
      if (endpoints.first < endpoints.second) {
        std::size_t joint_max = 0;
        std::size_t joint_min = std::numeric_limits<std::size_t>::max();
        topo::WireId hottest = topo::kInvalidWire;
        for (const auto& [w, a_to_b] : channels) {
          const auto* fwd = declared(w, true);
          const auto* rev = declared(w, false);
          const std::size_t joint = (fwd ? *fwd : 0) + (rev ? *rev : 0);
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
              << " is planned for " << joint_max
              << " routes (both directions) while a sibling is planned for "
              << joint_min;
          report.add("SL403", "", oss.str(),
                     "the engine's cable plan concentrates a parallel "
                     "trunk; rebalance the assignment");
        }
      }
      continue;
    }
    std::size_t group_max = 0;
    std::size_t group_min = std::numeric_limits<std::size_t>::max();
    topo::WireId hottest = topo::kInvalidWire;
    for (const auto& [w, a_to_b] : channels) {
      const std::size_t n = channel_load(w, a_to_b);
      if (n > group_max) {
        group_max = n;
        hottest = w;
      }
      group_min = std::min(group_min, n);
    }
    if (static_cast<double>(group_max) >
        options.load_imbalance_threshold *
            static_cast<double>(std::max<std::size_t>(group_min, 1))) {
      std::ostringstream oss;
      oss << "parallel cables " << topo.name(endpoints.first) << "->"
          << topo.name(endpoints.second) << ": wire " << hottest
          << " carries " << group_max << " routes while a sibling carries "
          << group_min;
      report.add("SL403", "", oss.str(),
                 "reseed the load-balance choice to spread parallel cables");
    }
  }
  // Funneling: one channel on the majority of all routes means the
  // orientation has collapsed the fabric onto a single pipe.
  std::size_t max_load = 0;
  std::pair<topo::WireId, bool> hottest{topo::kInvalidWire, false};
  for (const auto& [channel, n] : loads) {
    if (n > max_load) {
      max_load = n;
      hottest = channel;
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
