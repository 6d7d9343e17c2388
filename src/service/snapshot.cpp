#include "service/snapshot.hpp"

#include <utility>

#include "analysis/certificates.hpp"
#include "common/check.hpp"
#include "routing/deadlock.hpp"
#include "routing/engine.hpp"
#include "routing/optimizer.hpp"

namespace sanmap::service {

MapSnapshot build_snapshot(const topo::Topology& map,
                           const SnapshotOptions& options,
                           common::SimTime created_at) {
  topo::Topology compacted = map.compacted();

  routing::UpDownOptions updown;
  if (!options.root_name.empty()) {
    for (const topo::NodeId s : compacted.switches()) {
      if (compacted.name(s) == options.root_name) {
        updown.root = s;
      }
    }
    SANMAP_CHECK_MSG(updown.root.has_value(),
                     "snapshot root " << options.root_name
                                      << " names no switch of the map");
  }
  routing::RoutingResult routes = routing::compute_routes(
      compacted, options.engine, updown, options.route_seed);
  if (options.optimize) {
    routing::optimize_routes(compacted, routes);
  }

  const analysis::DeadlockCertificate certificate =
      analysis::build_deadlock_certificate(compacted, routes);
  const bool compliant = routing::updown_compliant(routes);
  const double mean_hops = routes.mean_hops();
  const int max_hops = routes.max_hops();
  return MapSnapshot{/*epoch=*/0,
                     created_at,
                     std::move(compacted),
                     std::move(routes),
                     options,
                     certificate.deadlock_free,
                     compliant,
                     certificate.channels,
                     certificate.dependencies,
                     mean_hops,
                     max_hops};
}

}  // namespace sanmap::service
