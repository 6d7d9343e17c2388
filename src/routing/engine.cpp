#include "routing/engine.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "routing/shortest_trees.hpp"
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
  result.routes = RouteTable(topo, result.orientation);

  // Per-channel route counts, updated as entries are committed. This is the
  // engine's load-aware selection state: Angara-style, every tie (next hop
  // or parallel cable) is broken toward the coldest alternative, once per
  // table entry, weighted by the sources the entry routes.
  std::vector<std::size_t> load(topo.wire_capacity() * 2, 0);
  std::vector<std::uint32_t> weight;
  detail::for_each_destination(
      topo, result.routes,
      [&](std::uint32_t dst, const detail::PhaseDistances& distances) {
        detail::grow_coldest_tree(result.routes, distances, dst, weight, load);
      });
  result.routes.recount();

  // Declare the parallel-cable assignment the selection just made, so
  // SL403 audits the table against intent instead of re-deriving a
  // per-direction uniformity expectation the engine never promised.
  detail::declare_cable_plan(detail::parallel_trunks(topo), load, result.meta);
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
