// Code-level lints over the network model and the route table.
//
// Well-formedness lints (SL3xx) run over a FabricView — a plain-data
// projection of a Topology — rather than the Topology itself, because the
// Topology class enforces most invariants at mutation time: a view can be
// hand-built broken (tests, corrupted snapshots, foreign importers), a
// Topology mostly cannot. Route lints (SL1xx structural, SL4xx quality) run
// over a route table and the map it claims to cover: lint_route over the
// routes the entry-local checker (table_check.hpp) singles out, the
// quality lints over the table's trees in blocks of 64 destinations.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::common {
class CallPool;
}  // namespace sanmap::common

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
  /// two switches, the hottest cable's joint (both-direction) load exceeds
  /// this multiple of the coldest sibling's (root-channel concentration on
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

/// SL102..SL105 for one walked route. Returns true when it added no
/// finding.
bool lint_route(const topo::Topology& topo, topo::NodeId src, topo::NodeId dst,
                const routing::HostRoute& route, DiagnosticReport& report);

/// Route-quality checks: SL401..SL404, from one pass over the table's
/// trees. Requires a structurally sound table.
void lint_route_quality(const topo::Topology& topo,
                        const routing::RoutingResult& routes,
                        const LintOptions& options,
                        DiagnosticReport& report);
/// The same checks, the trees and each destination's breadth-first search
/// run in blocks of 64 destinations on `pool`. The blocks' facts merge in
/// block order, so the findings are the same bytes on any core count.
void lint_route_quality(const topo::Topology& topo,
                        const routing::RoutingResult& routes,
                        const LintOptions& options, DiagnosticReport& report,
                        common::CallPool& pool);

}  // namespace sanmap::analysis
