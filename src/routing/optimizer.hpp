// RouteOptimizer: post-emission rebalancing of a legal route table.
//
// Both structural weaknesses sanlint's SL403 flags — parallel-cable skew
// and majority funneling — are artifacts of *selection*, not of the
// up/down order itself: among the shortest compliant paths for a host pair
// there are usually several tied apexes, and among the cables of a
// parallel trunk every choice is equally legal. The optimizer re-selects
// within exactly that legal freedom:
//
//  1. a path pass walks the routes in key order and moves each to the tied
//     alternative (apex + greedy coldest-cable assignment) that minimizes
//     the resulting max channel load (then total load) — hop counts never
//     change, because only same-cost alternatives are considered;
//  2. a cable pass re-deals the hops crossing each parallel trunk so the
//     per-cable totals (both directions jointly) differ by at most one,
//     recording the final assignment in TableMeta::cable_plan.
//
// Safety is never assumed: the final table is walked once against the
// orientation (updown_compliant, O(hops)). Routes that never turn from
// down to up under a total order cannot close a dependency cycle, so this
// walk is the optimizer's whole safety check; a table that fails it is
// replaced by the entry table and `reverted` is set. Every caller then
// certifies the table with the analysis layer's DeadlockCertificate
// (build_snapshot and the publish gate, federation's analyze, CLI routes
// and lint). All passes are deterministic, so an
// optimized table is still a pure function of its inputs (the snapshot
// codec depends on that).
#pragma once

#include <cstddef>

#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::routing {

struct OptimizerReport {
  /// Max load over directed channels before/after (route-count units).
  std::size_t max_load_before = 0;
  std::size_t max_load_after = 0;
  /// Routes moved by the path pass / hops re-dealt by the cable pass.
  std::size_t path_moves = 0;
  std::size_t cable_moves = 0;
  std::size_t rounds = 0;
  /// The rewritten table failed the legality walk and the entry table was
  /// restored (with sane engines this never fires, but the optimizer does
  /// not get to assume that).
  bool reverted = false;
};

/// Rebalances `routes` (computed on `topo`) in place. The table must be
/// orientation-legal on entry; hop counts are preserved. Updates
/// routes.meta (optimized flag + cable_plan).
OptimizerReport optimize_routes(const topo::Topology& topo,
                                RoutingResult& routes);

}  // namespace sanmap::routing
