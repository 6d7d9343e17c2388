// Code-level lints over the network model and the route table.
//
// The fabric lints (SL3xx) run straight off the Topology: it refuses
// dangling and out-of-range ports, double-wired and self-wired ports and
// duplicate host names on every mutation, and every parser (.topo, .dot,
// .sancase) builds through it, so what is left to find is isolated nodes
// and a disconnected fabric. Route lints (SL1xx structural, SL4xx quality)
// run over a route table and the map it claims to cover: lint_route over
// the routes the entry-local checker (table_check.hpp) singles out, the
// quality lints over the table's trees in blocks of 64 destinations.
#pragma once

#include "analysis/diagnostics.hpp"
#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::common {
class CallPool;
}  // namespace sanmap::common

namespace sanmap::analysis {

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

/// The fabric's shape: SL307 for each live node with no wire, in node-id
/// order, then SL308 when the fabric has more than one component. O(V + E).
void lint_fabric(const topo::Topology& topo, DiagnosticReport& report);

/// SL102..SL105 for one walked route. Returns true when it added no
/// finding.
bool lint_route(const topo::Topology& topo, topo::NodeId src, topo::NodeId dst,
                const routing::HostRoute& route, DiagnosticReport& report);

/// Route-quality checks: SL401..SL404, from one pass over the table's
/// trees. Requires a structurally sound table. The trees and each
/// destination's breadth-first search run in blocks of 64 destinations on
/// `pool`; the blocks' facts merge in block order, so the findings are the
/// same bytes on any core count.
void lint_route_quality(const topo::Topology& topo,
                        const routing::RoutingResult& routes,
                        const LintOptions& options, DiagnosticReport& report,
                        common::CallPool& pool);

}  // namespace sanmap::analysis
