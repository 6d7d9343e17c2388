#include "routing/engine.hpp"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "routing/congestion.hpp"
#include "routing/updown_paths.hpp"
#include "topology/algorithms.hpp"

namespace sanmap::routing {

namespace {

const UpDownEngine kUpDownEngine;
const DfsEngine kDfsEngine;

/// Deterministic DFS preorder over the fabric: neighbors are visited in
/// ascending node-id order, multi-edges count once. Every node's DFS-tree
/// parent gets a smaller preorder number, so every node reaches the root
/// (preorder 0) by strictly descending up moves — the route-existence
/// guarantee UP*/DOWN* gets from BFS distance, recovered for the DFS order.
std::vector<int> dfs_preorder_labels(const topo::Topology& topo,
                                     topo::NodeId root) {
  std::vector<int> labels(topo.node_capacity(), -1);
  std::vector<topo::NodeId> stack{root};
  std::vector<topo::NodeId> neighbors;
  int next = 0;
  while (!stack.empty()) {
    const topo::NodeId n = stack.back();
    stack.pop_back();
    if (labels[n] != -1) {
      continue;
    }
    labels[n] = next++;
    neighbors.clear();
    for (const topo::PortRef& nb : topo.neighbors(n)) {
      if (nb.node != n && labels[nb.node] == -1) {
        neighbors.push_back(nb.node);
      }
    }
    std::sort(neighbors.begin(), neighbors.end());
    neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                    neighbors.end());
    // Pushed in reverse so the smallest id is explored first.
    for (auto it = neighbors.rbegin(); it != neighbors.rend(); ++it) {
      stack.push_back(*it);
    }
  }
  return labels;
}

}  // namespace

RoutingResult UpDownEngine::compute(const topo::Topology& topo,
                                    const UpDownOptions& options,
                                    std::uint64_t seed) const {
  return compute_updown_routes(topo, options, seed);
}

RoutingResult DfsEngine::compute(const topo::Topology& topo,
                                 const UpDownOptions& options,
                                 std::uint64_t /*seed*/) const {
  SANMAP_CHECK_MSG(topo.num_switches() >= 1,
                   "routing needs at least one switch");
  SANMAP_CHECK_MSG(topo::connected(topo), "routing needs a connected map");
  topo::NodeId root;
  if (options.root.has_value()) {
    root = *options.root;
    SANMAP_CHECK(topo.node_alive(root) && topo.is_switch(root));
  } else {
    root = topo::switch_farthest_from_hosts(topo, options.ignore_hosts);
  }

  RoutingResult result{
      UpDownOrientation(topo, root, dfs_preorder_labels(topo, root)), {}, {}};
  result.meta.engine = EngineKind::kDfs;
  const UpDownOrientation& orientation = result.orientation;

  // The same preparation as the updown emitter, just over the DFS order.
  const detail::UpDownPaths paths(topo, orientation);

  // Per-channel route counts, updated as routes are committed. This is the
  // engine's load-aware selection state: Angara-style, every tie (apex or
  // parallel cable) is broken toward the coldest alternative.
  std::vector<std::size_t> load(topo.wire_capacity() * 2, 0);

  const auto hosts = topo.hosts();
  std::vector<std::size_t> cone;
  std::vector<std::size_t> apexes;
  detail::UpDownPaths::Choice best;
  detail::UpDownPaths::Choice scratch;
  for (const topo::NodeId src : hosts) {
    const std::size_t si = paths.index(src);
    paths.up_cone(si, cone);
    for (const topo::NodeId dst : hosts) {
      if (src == dst) {
        continue;
      }
      const std::size_t di = paths.index(dst);
      const int hops = paths.tied_apexes(si, di, cone, apexes);
      SANMAP_CHECK_MSG(hops < detail::kUnreachable,
                       "no deadlock-free route between hosts "
                           << topo.name(src) << " and " << topo.name(dst));

      // Every tied apex with a greedy coldest-cable choice per hop; the
      // candidate minimizing (resulting max channel load, then total load,
      // then apex visit order) wins. Fully deterministic.
      best.max_load = std::numeric_limits<std::size_t>::max();
      best.total_load = std::numeric_limits<std::size_t>::max();
      paths.coldest_route(topo, si, di, apexes, load, best, scratch);

      HostRoute route;
      route.nodes.reserve(best.sequence.size());
      for (const std::size_t i : best.sequence) {
        route.nodes.push_back(paths.node(i));
      }
      route.wires = best.wires;
      route.turns.reserve(route.wires.size() - 1);
      for (std::size_t h = 0; h < route.wires.size(); ++h) {
        const bool a_to_b = topo.wire(route.wires[h]).a.node == route.nodes[h];
        ++load[channel_slot(route.wires[h], a_to_b)];
      }
      recompute_turns(topo, route);
      result.routes.emplace_hint(result.routes.end(),
                                 std::make_pair(src, dst), std::move(route));
    }
  }

  // Declare the parallel-cable assignment the selection just made, so
  // SL403 audits the table against intent instead of re-deriving a
  // per-direction uniformity expectation the engine never promised.
  for (const auto& group : paths.groups()) {
    const auto cables = paths.cables(group);
    if (cables.size() < 2 || !topo.is_switch(paths.node(group.lo)) ||
        !topo.is_switch(paths.node(group.hi))) {
      continue;
    }
    for (const topo::WireId w : cables) {
      result.meta.cable_plan[{w, false}] = load[channel_slot(w, false)];
      result.meta.cable_plan[{w, true}] = load[channel_slot(w, true)];
    }
  }
  return result;
}

const Engine& engine_for(EngineKind kind) {
  switch (kind) {
    case EngineKind::kUpDown:
      return kUpDownEngine;
    case EngineKind::kDfs:
      return kDfsEngine;
  }
  SANMAP_CHECK_MSG(false,
                   "unknown engine kind " << static_cast<int>(kind));
  return kUpDownEngine;  // unreachable
}

const char* to_string(EngineKind kind) {
  return engine_for(kind).name();
}

std::optional<EngineKind> parse_engine(std::string_view name) {
  if (name == "updown") {
    return EngineKind::kUpDown;
  }
  if (name == "dfs") {
    return EngineKind::kDfs;
  }
  return std::nullopt;
}

RoutingResult compute_routes(const topo::Topology& topo, EngineKind kind,
                             const UpDownOptions& options,
                             std::uint64_t seed) {
  return engine_for(kind).compute(topo, options, seed);
}

}  // namespace sanmap::routing
