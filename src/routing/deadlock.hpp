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

/// The same dependencies read off a route table's trees, each distinct one
/// once, in ascending held-channel order. summarize() records them: per
/// destination, every state on the tree makes the turn from its entry's
/// channel to its successor's, and every routed source the turn from its
/// first hop onto its start state's entry. A turn is one bit per (held
/// channel, port its second channel leaves the switch by), so the trees
/// cost O(H·(S + E)) for the table in place of one visit per hop of every
/// route, and blocks of destinations read on a pool merge by OR into the
/// same bits in any order: the dependency graph needs only the union of
/// the turns (Dally & Seitz). Requires a structurally sound table
/// (analysis::TableCheck::sound()).
template <typename Visit>
void for_each_dependency(const topo::Topology& topo,
                         const TableSummary& summary, Visit&& visit) {
  const std::vector<std::uint8_t>& next_ports = summary.next_ports;
  for (std::size_t held = 0; held < next_ports.size(); ++held) {
    if (next_ports[held] == 0) {
      continue;
    }
    const bool a_to_b = held % 2 != 0;
    const topo::Wire& wire = topo.wire(static_cast<topo::WireId>(held / 2));
    const topo::NodeId at = a_to_b ? wire.b.node : wire.a.node;
    for (topo::Port port = 0; port < topo::kSwitchPorts; ++port) {
      if ((next_ports[held] & (1u << port)) != 0) {
        const topo::WireId next = *topo.wire_at(at, port);
        visit(Channel{static_cast<topo::WireId>(held / 2), a_to_b},
              Channel{next, topo.wire(next).a == topo::PortRef{at, port}});
      }
    }
  }
}

/// The stream the independent checkers derive instead: walk every route
/// (RouteTable::for_each_route) and visit each consecutive channel pair,
/// in route key order.
template <typename Visit>
void for_each_walked_dependency(const topo::Topology& topo,
                                const RoutingResult& routes, Visit&& visit) {
  routes.routes.for_each_route([&](topo::NodeId, topo::NodeId,
                                   const HostRoute& route) {
    Channel held;
    for (std::size_t i = 0; i < route.wires.size(); ++i) {
      const Channel next{route.wires[i],
                         topo.wire(route.wires[i]).a.node == route.nodes[i]};
      if (i > 0) {
        visit(held, next);
      }
      held = next;
    }
  });
}

/// Analyzes a route set over its topology by three-color DFS over the
/// walked dependency stream: the cross-check of the certificate, used by
/// tests, the route goldens and the fuzzer's analysis-deadlock-diff oracle.
DeadlockAnalysis analyze_routes(const topo::Topology& topo,
                                const RoutingResult& routes);

/// Analyzes explicit channel sequences (for adversarial tests: hand-built
/// route sets that DO deadlock).
DeadlockAnalysis analyze_channel_paths(
    const topo::Topology& topo,
    const std::vector<std::vector<Channel>>& paths);

}  // namespace sanmap::routing
