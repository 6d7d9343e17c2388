// Channel-dependency-graph deadlock analysis (Dally & Seitz, ref [8]).
//
// Channels are the directed halves of every wire. Each route contributes a
// dependency from every channel it holds to the next one it requests; a
// set of routes is mutually deadlock-free iff the resulting dependency
// graph is acyclic. This is the formal check behind §5.5's claim that the
// distributed UP*/DOWN* routes are mutually deadlock-free.
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

/// The channel sequence each route holds, in order — the exact dependency
/// inputs analyze_routes works from (it streams them via
/// for_each_dependency instead of materializing them). Exposed so an
/// independent cycle detector (src/verify's differential deadlock oracle)
/// can be run on the same inputs rather than on its own re-derivation of
/// them.
std::vector<std::vector<Channel>> route_channel_paths(
    const topo::Topology& topo, const RoutingResult& routes);

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

/// The same stream read straight off a route table, in route key order —
/// route_channel_paths(topo, routes) without materializing it, so a check
/// over a table allocates nothing per hop.
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

/// Analyzes a route set over its topology.
DeadlockAnalysis analyze_routes(const topo::Topology& topo,
                                const RoutingResult& routes);

/// Analyzes explicit channel sequences (for adversarial tests: hand-built
/// route sets that DO deadlock).
DeadlockAnalysis analyze_channel_paths(
    const topo::Topology& topo,
    const std::vector<std::vector<Channel>>& paths);

/// True when every route obeys the UP*/DOWN* rule: no down-to-up turn.
bool updown_compliant(const RoutingResult& routes);

/// The Mendlovic–Matias-style acyclicity witness: a rank function over the
/// channels that strictly increases along every consecutive channel pair of
/// every route. Such a function exists iff the channel-dependency graph is
/// acyclic — i.e. iff the (deterministic) routing relation is deadlock-free
/// — so computing one is a third, algorithmically independent proof next to
/// the Kahn-based DeadlockCertificate and the three-color DFS detector.
struct MmCondition {
  /// A finite rank assignment exists (the condition holds).
  bool holds = false;
  /// Channels that participate in at least one dependency.
  std::size_t channels = 0;
  /// Relaxation rounds used; bounded by `channels` when the condition
  /// holds, `channels` + 1 when it does not.
  std::size_t iterations = 0;
  /// rank[channel id] for participating channels (meaningful iff holds).
  std::vector<std::uint32_t> rank;
};

/// Checks the condition by longest-path relaxation: ranks start at zero and
/// every dependency (a, b) forces rank(b) > rank(a). On a DAG this settles
/// within `channels` rounds; a round that still raises a rank after that
/// bound proves a dependency cycle, so the condition fails.
MmCondition check_mm_condition(const topo::Topology& topo,
                               const std::vector<std::vector<Channel>>& paths);
/// The same check over a route table's own channel paths.
MmCondition check_mm_condition(const topo::Topology& topo,
                               const RoutingResult& routes);

}  // namespace sanmap::routing
