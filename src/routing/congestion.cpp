#include "routing/congestion.hpp"

#include <algorithm>
#include <vector>

namespace sanmap::routing {

std::vector<std::size_t> channel_loads(const topo::Topology& topo,
                                       const RoutingResult& routes) {
  std::vector<std::size_t> load(topo.wire_capacity() * 2, 0);
  const RouteTable& table = routes.routes;
  table.for_each_tree([&](const RouteTable::Tree& tree) {
    for_each_loaded_hop(table, tree,
                        [&](const RouteTable::Hop& hop, std::size_t count) {
                          load[hop.channel] += count;
                        });
  });
  return load;
}

CongestionStats channel_load(const topo::Topology& topo,
                             const RoutingResult& routes) {
  const std::vector<std::size_t> load = channel_loads(topo, routes);
  std::size_t total_hops = 0;
  std::size_t root_hops = 0;
  const topo::NodeId root = routes.orientation.root();
  const RouteTable& table = routes.routes;
  table.for_each_tree([&](const RouteTable::Tree& tree) {
    for_each_loaded_hop(table, tree,
                        [&](const RouteTable::Hop& hop, std::size_t count) {
                          total_hops += count;
                          if (hop.from == root || hop.to == root) {
                            root_hops += count;
                          }
                        });
  });

  CongestionStats stats;
  std::size_t used = 0;
  std::size_t sum = 0;
  for (std::size_t c = 0; c < load.size(); ++c) {
    if (load[c] == 0) {
      continue;
    }
    ++used;
    sum += load[c];
    if (load[c] > stats.max_channel_load) {
      stats.max_channel_load = load[c];
      stats.hottest_wire = static_cast<topo::WireId>(c / 2);
    }
  }
  stats.used_channels = used;
  stats.mean_channel_load =
      used == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(used);
  stats.root_traffic_share =
      total_hops == 0
          ? 0.0
          : static_cast<double>(root_hops) / static_cast<double>(total_hops);
  return stats;
}

}  // namespace sanmap::routing
