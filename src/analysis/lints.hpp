// Code-level lints over the network model and the route table.
//
// Well-formedness lints (SL3xx) run over a FabricView — a plain-data
// projection of a Topology — rather than the Topology itself, because the
// Topology class enforces most invariants at mutation time: a view can be
// hand-built broken (tests, corrupted snapshots, foreign importers), a
// Topology mostly cannot. Route lints (SL1xx structural, SL4xx quality) run
// over a route table and the map it claims to cover.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::analysis {

/// Plain-data projection of a fabric for well-formedness linting.
struct FabricView {
  struct NodeView {
    topo::NodeKind kind = topo::NodeKind::kSwitch;
    std::string name;
    bool alive = true;
  };
  struct WireView {
    topo::PortRef a;
    topo::PortRef b;
    bool alive = true;
  };
  /// Indexed by NodeId / WireId.
  std::vector<NodeView> nodes;
  std::vector<WireView> wires;
  /// The node-side port table: what each (node, port) slot claims to carry.
  /// Symmetric with `wires` in a well-formed fabric.
  std::vector<std::pair<topo::PortRef, topo::WireId>> port_claims;
};

/// Projects a live Topology into a view (which then trivially passes).
FabricView view_of(const topo::Topology& topo);

struct LintOptions {
  /// SL403 fires when, among redundant parallel cables between the same
  /// two switches, the hottest directed channel exceeds this multiple of
  /// the coldest sibling's load (root-channel concentration on
  /// hierarchical fabrics is structural to UP*/DOWN* and deliberately NOT
  /// flagged; a majority-of-all-routes funnel still is).
  double load_imbalance_threshold = 6.0;
  /// SL404 fires on routes longer than this; 0 disables.
  int hop_limit = 0;
  /// SL403/SL401 need at least this many routes to be meaningful.
  std::size_t min_routes_for_quality = 6;
};

/// Model-graph well-formedness: SL301..SL308.
void lint_fabric(const FabricView& view, DiagnosticReport& report);

/// Structural route-table checks against the map: SL102..SL105. Returns
/// true when the table is structurally sound (certificates may then walk it
/// without tripping Topology access checks).
bool lint_route_structure(const topo::Topology& topo,
                          const routing::RoutingResult& routes,
                          DiagnosticReport& report);

/// Route-quality checks: SL401..SL404. Requires a structurally sound table.
void lint_route_quality(const topo::Topology& topo,
                        const routing::RoutingResult& routes,
                        const LintOptions& options,
                        DiagnosticReport& report);

}  // namespace sanmap::analysis
