#include "routing/routes.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "routing/updown_paths.hpp"

namespace sanmap::routing {

const HostRoute& RoutingResult::route(topo::NodeId src,
                                      topo::NodeId dst) const {
  const auto it = routes.find({src, dst});
  SANMAP_CHECK_MSG(it != routes.end(),
                   "no route from " << src << " to " << dst);
  return it->second;
}

std::vector<const HostRoute*> RoutingResult::table_for(
    topo::NodeId src) const {
  // The map is key-ordered, so one source's routes are one contiguous run.
  std::vector<const HostRoute*> out;
  const auto end = src == std::numeric_limits<topo::NodeId>::max()
                       ? routes.end()
                       : routes.lower_bound({src + 1, 0});
  for (auto it = routes.lower_bound({src, 0}); it != end; ++it) {
    out.push_back(&it->second);
  }
  return out;
}

double RoutingResult::mean_hops() const {
  if (routes.empty()) {
    return 0.0;
  }
  double total = 0;
  for (const auto& [key, value] : routes) {
    total += value.hops();
  }
  return total / static_cast<double>(routes.size());
}

int RoutingResult::max_hops() const {
  int best = 0;
  for (const auto& [key, value] : routes) {
    best = std::max(best, value.hops());
  }
  return best;
}

RoutingResult compute_updown_routes(const topo::Topology& topo,
                                    const UpDownOptions& options,
                                    std::uint64_t seed) {
  RoutingResult result{UpDownOrientation(topo, options), {}, {}};
  common::Rng rng(seed);
  const detail::UpDownPaths paths(topo, result.orientation);

  // Host pairs: best apex combining an up prefix with a down suffix. Pairs
  // are emitted in key order, so each lands at the end of the map.
  const auto hosts = topo.hosts();
  std::vector<std::size_t> cone;
  std::vector<std::size_t> apexes;
  std::vector<std::size_t> sequence;
  for (const topo::NodeId src : hosts) {
    const std::size_t si = paths.index(src);
    paths.up_cone(si, cone);
    for (const topo::NodeId dst : hosts) {
      if (src == dst) {
        continue;
      }
      const int best = paths.tied_apexes(si, paths.index(dst), cone, apexes);
      SANMAP_CHECK_MSG(best < detail::kUnreachable,
                       "no UP*/DOWN* route between hosts "
                           << topo.name(src) << " and " << topo.name(dst));
      // §5.5's load-balance freedom, applied to equal-cost apexes as well
      // as parallel cables: spread traffic over the tied alternatives.
      const std::size_t apex = rng.pick(apexes);
      paths.path(si, apex, paths.index(dst), sequence);

      HostRoute route;
      const std::size_t hops = sequence.size() - 1;
      route.nodes.reserve(hops + 1);
      route.wires.reserve(hops);
      route.turns.reserve(hops - 1);
      for (const std::size_t i : sequence) {
        route.nodes.push_back(paths.node(i));
      }
      // Pick a wire per hop (uniformly among parallel cables of that hop's
      // direction — both directions share the cable set).
      for (std::size_t h = 0; h < hops; ++h) {
        route.wires.push_back(
            rng.pick(paths.cables(sequence[h], sequence[h + 1])));
      }
      recompute_turns(topo, route);
      result.routes.emplace_hint(result.routes.end(),
                                 std::make_pair(src, dst), std::move(route));
    }
  }
  return result;
}

void recompute_turns(const topo::Topology& topo, HostRoute& route) {
  // At each intermediate switch, the turn is the exit port minus the entry
  // port (§2.2 relative addressing).
  route.turns.clear();
  for (std::size_t h = 1; h < route.wires.size(); ++h) {
    const topo::NodeId at = route.nodes[h];
    const topo::Wire& in_wire = topo.wire(route.wires[h - 1]);
    const topo::Wire& out_wire = topo.wire(route.wires[h]);
    const topo::Port in_port = in_wire.opposite(route.nodes[h - 1]).port;
    topo::Port out_port;
    if (out_wire.a.node == at) {
      out_port = out_wire.a.port;
    } else {
      out_port = out_wire.b.port;
    }
    route.turns.push_back(out_port - in_port);
  }
}

}  // namespace sanmap::routing
