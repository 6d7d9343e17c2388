// Graph algorithms over Topology used by the mapper, the routing layer, and
// the correctness oracles:
//
//  * BFS distances, connectivity, components, diameter;
//  * bridges and switch-bridges (Def. 2 context);
//  * the separated set F and the core N − F (paper Lemma 1);
//  * Q(v) and Q (paper Defs. 2–3) via min-cost flow, exactly mirroring the
//    paper's Max-Flow/Min-Cut argument;
//  * the exploration depth bound Q + D + 1 (§3.1.4).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "topology/topology.hpp"

namespace sanmap::topo {

/// BFS hop distances from `from` to every node; -1 where unreachable.
/// Distances are counted in wires; hosts relay for the purpose of this pure
/// graph metric (message semantics live in simnet, not here).
std::vector<int> bfs_distances(const Topology& topo, NodeId from);

/// True when all live nodes are mutually reachable.
bool connected(const Topology& topo);

/// Component id per node id (kInvalidNode-sized slots for dead nodes get -1).
/// Returns the number of components.
int components(const Topology& topo, std::vector<int>& component_of);

/// Maximum finite BFS distance over all live node pairs. The topology must
/// be connected.
int diameter(const Topology& topo);

/// All bridge wires (edges whose removal disconnects the graph). Parallel
/// wires between the same node pair are never bridges.
std::vector<WireId> bridges(const Topology& topo);

/// Bridges with a switch at both ends (paper §3.1.4).
std::vector<WireId> switch_bridges(const Topology& topo);

/// The separated set F: nodes cut off from every host by some switch-bridge
/// (paper Lemma 1: F = the set of all nodes separated by a switch-bridge
/// from H). Returned as a node_capacity()-sized membership mask.
std::vector<bool> separated_set(const Topology& topo);

/// The core N − F: a copy of the topology with F removed (ids NOT
/// renumbered; dead slots remain so ids stay comparable with the input).
Topology core(const Topology& topo);

/// Q(v) of Definition 2: the length of the shortest walk from the mapper
/// host through v and on to any host that repeats no wire in either
/// direction (the mapper host's own wire may be both first and last edge).
/// nullopt when no such walk exists (v ∈ F).
std::optional<int> q_of(const Topology& topo, NodeId mapper_host, NodeId v);

/// Q of Definition 3: max of Q(v) over the core. Topology must be connected
/// with at least one switch and two hosts (the paper's standing assumption).
int q_value(const Topology& topo, NodeId mapper_host);

/// The exploration depth bound of §3.1.4, in probe-string-length units:
/// Q + D + 1.
int search_depth(const Topology& topo, NodeId mapper_host);

/// Max over switches of the minimum distance to any host; returns the
/// arg-max switch. Used by UP*/DOWN* to pick "a switch as far away from all
/// hosts as possible" (§5.5). `ignore` lists hosts excluded from the
/// distance computation (the paper ignores the utility host).
NodeId switch_farthest_from_hosts(const Topology& topo,
                                  const std::vector<NodeId>& ignore = {});

}  // namespace sanmap::topo
