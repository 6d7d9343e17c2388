// Route-health validation: does a distributed route table still deliver on
// a network that kept failing after the routes went out?
//
// A route table is only as good as the fabric under it: a link that dies
// after distribution leaves every route crossing it silently broken. The
// validator fires each computed host-pair route from its real source host
// into the live (possibly faulted) network and checks it arrives at the
// intended destination. Routes are in *map space*, but turns are port
// differences, so the unknown per-switch port offsets cancel and the turn
// sequences are physically valid; hosts are matched between map and
// network by their unique names.
//
// The map service does not replay routes to judge its map (RefreshLoop
// sweeps the map itself, one check per port); this is the
// independent end-to-end check that tests and benches use to show the
// routes really deliver.
#pragma once

#include <string>
#include <vector>

#include "common/sim_time.hpp"
#include "routing/routes.hpp"
#include "simnet/network.hpp"
#include "topology/topology.hpp"

namespace sanmap::routing {

/// One route that failed validation.
struct BrokenRoute {
  std::string src;
  std::string dst;
  /// How the live network disposed of the message (kNoSuchWire for a dead
  /// link on the path, kDropped for a dead source host, ...). kDelivered
  /// here means it arrived — at the wrong host (a rewired fabric).
  simnet::DeliveryStatus status = simnet::DeliveryStatus::kDelivered;
};

struct RouteHealthReport {
  std::size_t routes_checked = 0;
  std::vector<BrokenRoute> broken;
  /// Validator-side time: one send/receive (or timeout) per route.
  common::SimTime elapsed{};

  [[nodiscard]] bool healthy() const { return broken.empty(); }
  [[nodiscard]] double delivery_ratio() const {
    return routes_checked == 0
               ? 1.0
               : 1.0 - static_cast<double>(broken.size()) /
                           static_cast<double>(routes_checked);
  }
};

/// Fires every host-pair route of `routes` (computed on `map`) against the
/// live network, starting at instant `at` on the virtual clock and
/// advancing it per check (so a FaultSchedule is sampled at realistic
/// times). A route is healthy iff the message is delivered to the host
/// with the destination's map name.
RouteHealthReport check_routes(simnet::Network& net,
                               const RoutingResult& routes,
                               const topo::Topology& map,
                               common::SimTime at);

}  // namespace sanmap::routing
