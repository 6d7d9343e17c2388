// The routing engine registry: every deadlock-free route computation the
// service can publish, behind one interface.
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
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::routing {

/// One deadlock-free route computation. Implementations must be
/// deterministic in (topology, options, seed): the snapshot codec decodes
/// by recomputing and byte-comparing.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  virtual ~Engine() = default;

  [[nodiscard]] virtual EngineKind kind() const = 0;
  /// Stable CLI/config name ("updown", "dfs").
  [[nodiscard]] virtual const char* name() const = 0;
  /// Computes the full host-pair table. The topology must be connected
  /// with at least one switch and one host.
  [[nodiscard]] virtual RoutingResult compute(const topo::Topology& topo,
                                              const UpDownOptions& options,
                                              std::uint64_t seed) const = 0;
};

/// The classic engine: BFS labels, seeded-random tie-breaks — a thin
/// wrapper over compute_updown_routes, byte-identical to calling it.
class UpDownEngine final : public Engine {
 public:
  [[nodiscard]] EngineKind kind() const override { return EngineKind::kUpDown; }
  [[nodiscard]] const char* name() const override { return "updown"; }
  [[nodiscard]] RoutingResult compute(const topo::Topology& topo,
                                      const UpDownOptions& options,
                                      std::uint64_t seed) const override;
};

/// The DFS-preorder-ordered engine with load-aware deterministic selection
/// (header comment above). `seed` is accepted for interface uniformity but
/// unused: every choice is resolved by load and then by the smallest wire,
/// so the table is a pure function of (topology, options).
class DfsEngine final : public Engine {
 public:
  [[nodiscard]] EngineKind kind() const override { return EngineKind::kDfs; }
  [[nodiscard]] const char* name() const override { return "dfs"; }
  [[nodiscard]] RoutingResult compute(const topo::Topology& topo,
                                      const UpDownOptions& options,
                                      std::uint64_t seed) const override;
};

/// The process-wide engine instances (engines are stateless).
const Engine& engine_for(EngineKind kind);

const char* to_string(EngineKind kind);

/// Parses a stable engine name ("updown", "dfs"); nullopt on anything else.
std::optional<EngineKind> parse_engine(std::string_view name);

/// Convenience dispatch: engine_for(kind).compute(...).
RoutingResult compute_routes(const topo::Topology& topo, EngineKind kind,
                             const UpDownOptions& options = {},
                             std::uint64_t seed = 1);

}  // namespace sanmap::routing
