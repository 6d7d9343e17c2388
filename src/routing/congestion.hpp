// Channel-load analysis for a route set.
//
// §5.5 notes the known weaknesses of UP*/DOWN*: "increased congestion about
// the root" and strong topology dependence ("the goodness of UP*/DOWN*
// routes is known to be highly topology-dependent"). These metrics make
// that measurable: per-channel route counts, the hottest wire, and how much
// of the total traffic crosses the root switch.
#pragma once

#include <cstddef>
#include <vector>

#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::routing {

struct CongestionStats {
  /// Routes crossing the most loaded directed channel.
  std::size_t max_channel_load = 0;
  /// Mean load over channels that carry at least one route.
  double mean_channel_load = 0.0;
  /// Channels carrying at least one route (out of 2 * wires).
  std::size_t used_channels = 0;
  /// The wire whose busier direction is the hottest channel.
  topo::WireId hottest_wire = topo::kInvalidWire;
  /// Fraction of all route-hops that touch the orientation's root switch.
  double root_traffic_share = 0.0;
};

/// Dense directed-channel slot of wire `w`: w * 2 + (a-to-b ? 1 : 0), so
/// ascending slots are ascending (wire, a-to-b) keys.
inline std::size_t channel_slot(topo::WireId w, bool a_to_b) {
  return static_cast<std::size_t>(w) * 2 + (a_to_b ? 1 : 0);
}

/// Calls visit(hop, routes) for every hop of one destination's tree with
/// the number of routes that take it: each routed source's first hop once,
/// and each tree entry once per source it routes. Summed over every tree,
/// that is each channel's load.
template <typename Visit>
void for_each_loaded_hop(const RouteTable& table,
                         const RouteTable::Tree& tree, Visit&& visit) {
  for (std::uint32_t i = 0; i < tree.routed.size(); ++i) {
    if (tree.routed[i] != 0) {
      visit(table.first_hop(i), std::size_t{1});
    }
  }
  for (const std::uint32_t x : tree.order) {
    visit(table.entry_hop(tree.dst, x),
          static_cast<std::size_t>(tree.weight[x]));
  }
}

/// Routes crossing each directed channel, indexed by channel_slot (sized
/// 2 * topo.wire_capacity()).
std::vector<std::size_t> channel_loads(const topo::Topology& topo,
                                       const RoutingResult& routes);

CongestionStats channel_load(const topo::Topology& topo,
                             const RoutingResult& routes);

}  // namespace sanmap::routing
