#include "service/snapshot.hpp"

#include <utility>

#include "analysis/analyzer.hpp"
#include "common/check.hpp"
#include "routing/optimizer.hpp"

namespace sanmap::service {

MapSnapshot build_snapshot(const topo::Topology& map,
                           const SnapshotOptions& options,
                           common::SimTime created_at) {
  topo::Topology compacted = map.compacted();

  routing::UpDownOptions updown;
  if (!options.root_name.empty()) {
    updown.root = compacted.find_switch(options.root_name);
    SANMAP_CHECK_MSG(updown.root.has_value(),
                     "snapshot root " << options.root_name
                                      << " names no switch of the map");
  }
  routing::RoutingResult routes = routing::route(compacted, options, updown);

  const routing::HopSummary hops = routing::summarize(routes).hops();
  return MapSnapshot{.created_at = created_at,
                     .map = std::move(compacted),
                     .routes = std::move(routes),
                     .options = options,
                     .mean_hops = hops.mean,
                     .max_hops = hops.max};
}

analysis::AnalysisResult certify(MapSnapshot& snapshot) {
  analysis::AnalysisResult verdict =
      analysis::analyze(snapshot.map, snapshot.routes);
  snapshot.deadlock_free = verdict.deadlock.deadlock_free;
  snapshot.compliant = verdict.analyzed_routes && verdict.legality.all_legal();
  snapshot.channels = verdict.deadlock.channels;
  snapshot.dependencies = verdict.deadlock.dependencies;
  return verdict;
}

}  // namespace sanmap::service
