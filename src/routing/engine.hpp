// The routing engines: every deadlock-free route computation the service
// can publish, selected by EngineKind.
//
// UP*/DOWN* (§5.5) is one point in the design space. Its deadlock-freedom
// argument never actually uses "BFS" — it only needs a *total order* on the
// nodes: when every route ascends in the order and then descends, a
// down-to-up turn is impossible, every channel-dependency chain strictly
// ascends twice at most, and the dependency graph is acyclic (Dally &
// Seitz). Any total order whose minimum every node can reach by up moves
// therefore yields a complete, deadlock-free routing relation.
//
// The second engine exploits exactly that freedom, following the optimized
// graph-based routing of the Angara interconnect (Mukosey, Semenov &
// Simonov) whose grounding is Sancho's DFS variant of UP*/DOWN*: the order
// is a depth-first preorder of the fabric (every node's DFS-tree parent
// precedes it, so the climb-to-root guarantee holds), and among the legal
// shortest alternatives — tied next hops, parallel cables — the emitter
// picks deterministically by channel load instead of at random, which is
// what cuts parallel-cable skew and root funneling.
//
// Both engines fill the same per-destination next-hop table
// (routing/routes.hpp) from one reverse breadth-first search per
// destination switch, O(H·(S + E)) for H hosts, S switches and E wires. A
// choice is made once per table entry, for every source the entry routes:
// the DFS engine sends an entry down the tied next hop whose coldest
// continuation to the destination is coldest, in (hottest channel, total
// load), and adds the entry's sources to that channel. Acyclicity of the
// emitted table is proved by the analysis layer's DeadlockCertificate and
// its independent checker; an engine does not get to assume its own
// correctness argument.
//
// An engine's orientation is a function of the map, the root and the
// engine alone (orient()), so a reader holding a stored table rebuilds the
// orientation it was routed under without routing again.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "routing/routes.hpp"
#include "routing/updown.hpp"
#include "topology/topology.hpp"

namespace sanmap::routing {

/// Which engine computes a route table. Values are stable across releases:
/// the snapshot codec serializes them.
enum class EngineKind : std::uint8_t {
  /// BFS-labeled UP*/DOWN* (§5.5) with seeded-random tie-breaks.
  kUpDown = 0,
  /// DFS-preorder-ordered graph routing with deterministic load-aware
  /// selection (header comment above).
  kDfs = 1,
};

/// Stable CLI/config name ("updown", "dfs").
const char* to_string(EngineKind kind);

/// Parses a stable engine name ("updown", "dfs"); nullopt on anything else.
std::optional<EngineKind> parse_engine(std::string_view name);

/// The orientation `kind` routes under: BFS labels with the dominant-switch
/// fix for kUpDown, DFS preorder labels for kDfs, rooted at options.root or
/// else at the switch farthest from the hosts. The topology must be
/// connected with at least one switch.
UpDownOrientation orient(const topo::Topology& topo, EngineKind kind,
                         const UpDownOptions& options = {});

/// The route choices every config that routes derives from, honoured by
/// route() (optimizer.hpp). A root name is not one: a switch has no name
/// before it is mapped (DESIGN.md §7 item 6).
struct RouteChoices {
  /// Which engine computes the table. Any engine whose table certifies is
  /// publishable: the analysis layer proves safety either way.
  EngineKind engine = EngineKind::kUpDown;
  /// Seed for the UP*/DOWN* emitter's parallel-cable load-balance choice
  /// (the DFS engine ignores it).
  std::uint64_t route_seed = 1;
  /// Run the skew/funnel RouteOptimizer over the table after routing.
  bool optimize = false;
};

/// Computes the full host-pair table with engine `kind`. The topology must
/// be connected with at least one switch and one host. Deterministic in
/// (topology, kind, options, seed); the DFS engine ignores `seed`, since it
/// resolves every choice by load and then by the smallest wire.
RoutingResult compute_routes(const topo::Topology& topo, EngineKind kind,
                             const UpDownOptions& options = {},
                             std::uint64_t seed = 1);

}  // namespace sanmap::routing
