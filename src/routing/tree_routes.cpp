#include "routing/tree_routes.hpp"

#include <algorithm>
#include <deque>

#include "common/check.hpp"

namespace sanmap::routing {

RoutingResult compute_tree_routes(const topo::Topology& topo,
                                  const UpDownOptions& options) {
  RoutingResult result{UpDownOrientation(topo, options), {}};
  const topo::NodeId root = result.orientation.root();

  // BFS tree: parent wire per node.
  std::vector<topo::WireId> parent_wire(topo.node_capacity(),
                                        topo::kInvalidWire);
  std::vector<topo::NodeId> parent(topo.node_capacity(), topo::kInvalidNode);
  std::vector<int> depth(topo.node_capacity(), -1);
  std::deque<topo::NodeId> queue{root};
  depth[root] = 0;
  while (!queue.empty()) {
    const topo::NodeId n = queue.front();
    queue.pop_front();
    for (topo::Port p = 0; p < topo.port_count(n); ++p) {
      const auto w = topo.wire_at(n, p);
      if (!w) {
        continue;
      }
      const topo::PortRef far = topo.wire(*w).opposite(topo::PortRef{n, p});
      if (far.node != n && depth[far.node] == -1) {
        depth[far.node] = depth[n] + 1;
        parent[far.node] = n;
        parent_wire[far.node] = *w;
        queue.push_back(far.node);
      }
    }
  }

  // Per destination: a switch on the tree path from the root down to the
  // destination hands the message down toward it, any other switch hands
  // it up to its parent; so every route climbs to the lowest common
  // ancestor and descends. Each source's walk stops at the first state
  // another source already filled.
  RouteTable& table = result.routes;
  table = RouteTable(topo, result.orientation);
  std::vector<topo::WireId> down(topo.node_capacity(), topo::kInvalidWire);
  const auto hosts = static_cast<std::uint32_t>(table.hosts().size());
  for (std::uint32_t j = 0; j < hosts; ++j) {
    const topo::NodeId dst = table.hosts()[j];
    SANMAP_CHECK_MSG(depth[dst] >= 0,
                     "tree routing requires a connected topology");
    for (topo::NodeId n = dst; n != root; n = parent[n]) {
      down[parent[n]] = parent_wire[n];
    }
    for (std::uint32_t i = 0; i < hosts; ++i) {
      std::uint32_t x = table.start(i);
      while (i != j && x != RouteTable::kNone &&
             table.next(j, x) == topo::kInvalidWire) {
        const topo::NodeId at = table.state_switch(x);
        const topo::WireId w =
            down[at] != topo::kInvalidWire ? down[at] : parent_wire[at];
        table.set_entry(j, x, w);
        x = table.hop(x, w).state;
      }
    }
    for (topo::NodeId n = dst; n != root; n = parent[n]) {
      down[parent[n]] = topo::kInvalidWire;
    }
  }
  table.recount();
  return result;
}

}  // namespace sanmap::routing
