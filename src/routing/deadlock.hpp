// Channel-dependency-graph deadlock analysis (Dally & Seitz, ref [8]).
//
// Channels are the directed halves of every wire. Each route contributes a
// dependency from every channel it holds to the next one it requests; a
// set of routes is mutually deadlock-free iff the resulting dependency
// graph is acyclic. This is the check behind §5.5's claim that the
// distributed UP*/DOWN* routes are mutually deadlock-free. Production code
// proves it with analysis::DeadlockCertificate (Kahn elimination over the
// dependency streams below); the three-color DFS here is its one
// independent cross-check.
#pragma once

#include <cstdint>
#include <vector>

#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::routing {

/// A directed channel: one direction of one wire.
struct Channel {
  topo::WireId wire = topo::kInvalidWire;
  bool a_to_b = true;

  friend constexpr auto operator<=>(const Channel&, const Channel&) = default;
};

struct DeadlockAnalysis {
  bool deadlock_free = false;
  std::size_t channels = 0;
  std::size_t dependencies = 0;
  /// When a cycle exists: one witness cycle of channels.
  std::vector<Channel> cycle;
};

/// Calls visit(held, requested) for every consecutive channel pair of
/// every path: the dependency stream all acyclicity checks consume.
template <typename Visit>
void for_each_dependency(const std::vector<std::vector<Channel>>& paths,
                         Visit&& visit) {
  for (const auto& path : paths) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      visit(path[i], path[i + 1]);
    }
  }
}

/// The same stream read straight off a route table, in route key order:
/// each route's channels are the directed halves of its wires, in hop
/// order. Nothing is materialized, so a check over a table allocates
/// nothing per hop.
template <typename Visit>
void for_each_dependency(const topo::Topology& topo,
                         const RoutingResult& routes, Visit&& visit) {
  for (const auto& [key, route] : routes.routes) {
    Channel held;
    for (std::size_t i = 0; i < route.wires.size(); ++i) {
      const Channel next{route.wires[i],
                         topo.wire(route.wires[i]).a.node == route.nodes[i]};
      if (i > 0) {
        visit(held, next);
      }
      held = next;
    }
  }
}

/// Analyzes a route set over its topology by three-color DFS: the
/// cross-check of the certificate, used by tests, the route goldens and the
/// fuzzer's analysis-deadlock-diff oracle.
DeadlockAnalysis analyze_routes(const topo::Topology& topo,
                                const RoutingResult& routes);

/// Analyzes explicit channel sequences (for adversarial tests: hand-built
/// route sets that DO deadlock).
DeadlockAnalysis analyze_channel_paths(
    const topo::Topology& topo,
    const std::vector<std::vector<Channel>>& paths);

/// True when every route obeys the UP*/DOWN* rule: no down-to-up turn.
bool updown_compliant(const RoutingResult& routes);

}  // namespace sanmap::routing
