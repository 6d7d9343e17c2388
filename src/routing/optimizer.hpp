// RouteOptimizer: post-emission rebalancing of a legal route table.
//
// Both structural weaknesses sanlint's SL403 flags — parallel-cable skew
// and majority funneling — are artifacts of *selection*, not of the
// up/down order itself: among the shortest compliant next hops toward a
// destination there are usually several tied ones, and among the cables of
// a parallel trunk every choice is equally legal. The optimizer re-selects
// within exactly that legal freedom, one table entry at a time (an entry
// routes every source whose walk reaches its state):
//
//  1. a path pass walks each destination's tree sources first and
//     re-points an entry at another tied next hop when that lowers
//     (hottest channel, sum of squared loads) over the channels the move
//     touches: the entry's sources leave their path up to where the new
//     one meets it (through states no source reached yet, the new path
//     takes the least loaded tied hop). Hop counts never change, because
//     only tied shortest next hops are considered;
//  2. a cable pass re-deals the entries crossing each parallel trunk,
//     destinations ascending and each tree sources first, to the cable
//     with the fewest routes so far (both directions jointly). Since it
//     deals whole entries, per-cable totals end within the largest entry
//     weight of each other (not within one route, as dealing single routes
//     would). A trunk whose hottest directed channel the deal would raise
//     keeps its old assignment.
//
// Neither pass can raise the maximum channel load: max_load_after <=
// max_load_before always holds.
//
// The cable pass reads every tree once, O(H·(S + E)) per round for H
// hosts, S switches and E wires; the path pass also walks each candidate
// move to where it meets the old path, O(H·(S + E)·L) at worst for L hops
// a route (0.12 s a round trip of `sanmap routes --optimize` over plain
// routing on the 480-switch fat tree).
//
// Safety is never assumed: the final table is checked against the
// orientation (updown_compliant, which reads the trees). Routes that never
// turn from down to up under a total order cannot close a dependency
// cycle, so this is the optimizer's whole safety check; a table that fails
// it is replaced by the entry table and `reverted` is set. Every caller
// then certifies the table with the analysis layer's DeadlockCertificate
// (the publish gate and snapshot decode through service::certify,
// federation's analyze, CLI routes and lint). All passes are
// deterministic, so an optimized table is still a pure function of its
// inputs.
#pragma once

#include <cstddef>

#include "routing/engine.hpp"
#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::routing {

struct OptimizerReport {
  /// Max load over directed channels before/after (route-count units).
  std::size_t max_load_before = 0;
  std::size_t max_load_after = 0;
  /// Table entries re-pointed by the path pass / by the cable pass.
  std::size_t path_moves = 0;
  std::size_t cable_moves = 0;
  std::size_t rounds = 0;
  /// The rewritten table failed the legality walk and the entry table was
  /// restored (with sane engines this never fires, but the optimizer does
  /// not get to assume that).
  bool reverted = false;
};

/// Rebalances `routes` (computed on `topo`) in place. The table must route
/// every pair along a shortest compliant path on entry, as every engine's
/// does; hop counts are preserved.
OptimizerReport optimize_routes(const topo::Topology& topo,
                                RoutingResult& routes);

/// compute_routes under `choices`, then optimize_routes when asked, whose
/// report lands in `report`. Defined here, outside engine.cpp, so a
/// link-time wrap of compute_routes (bench/e2e/layer_spans.cpp) sees it.
RoutingResult route(const topo::Topology& map, const RouteChoices& choices,
                    const UpDownOptions& updown = {},
                    OptimizerReport* report = nullptr);

}  // namespace sanmap::routing
