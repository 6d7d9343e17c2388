#include "routing/engine.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "routing/shortest_trees.hpp"
#include "topology/algorithms.hpp"

namespace sanmap::routing {

namespace {

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

/// The DFS engine: every tie (next hop or parallel cable) broken toward
/// the coldest alternative, Angara-style, once per table entry, weighted
/// by the sources the entry routes.
RoutingResult compute_dfs_routes(const topo::Topology& topo,
                                 const UpDownOptions& options) {
  RoutingResult result{orient(topo, EngineKind::kDfs, options), {}};
  result.routes = RouteTable(topo, result.orientation);
  // Per-channel route counts, updated as entries are committed.
  std::vector<std::size_t> load(topo.wire_capacity() * 2, 0);
  std::vector<std::uint32_t> weight;
  detail::for_each_destination(
      topo, result.routes,
      [&](std::uint32_t dst, const detail::PhaseDistances& distances) {
        detail::grow_coldest_tree(result.routes, distances, dst, weight, load);
      });
  result.routes.recount();
  return result;
}

}  // namespace

const char* to_string(EngineKind kind) {
  switch (kind) {
    case EngineKind::kUpDown:
      return "updown";
    case EngineKind::kDfs:
      return "dfs";
  }
  return "unknown";
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

UpDownOrientation orient(const topo::Topology& topo, EngineKind kind,
                         const UpDownOptions& options) {
  if (kind == EngineKind::kUpDown) {
    return UpDownOrientation(topo, options);
  }
  SANMAP_CHECK_MSG(topo.num_switches() >= 1,
                   "routing needs at least one switch");
  SANMAP_CHECK_MSG(topo::connected(topo), "routing needs a connected map");
  const topo::NodeId root =
      options.root.has_value()
          ? *options.root
          : topo::switch_farthest_from_hosts(topo, options.ignore_hosts);
  SANMAP_CHECK(topo.node_alive(root) && topo.is_switch(root));
  return UpDownOrientation(topo, root, dfs_preorder_labels(topo, root));
}

RoutingResult compute_routes(const topo::Topology& topo, EngineKind kind,
                             const UpDownOptions& options,
                             std::uint64_t seed) {
  if (kind == EngineKind::kDfs) {
    return compute_dfs_routes(topo, options);
  }
  SANMAP_CHECK_MSG(kind == EngineKind::kUpDown,
                   "unknown engine kind " << static_cast<int>(kind));
  return compute_updown_routes(topo, options, seed);
}

}  // namespace sanmap::routing
