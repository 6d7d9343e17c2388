#include "routing/route_health.hpp"

#include "common/check.hpp"

namespace sanmap::routing {

RouteHealthReport check_routes(simnet::Network& net,
                               const RoutingResult& routes,
                               const topo::Topology& map,
                               common::SimTime at) {
  const topo::Topology& live = net.topology();
  const auto& cost = net.cost();
  RouteHealthReport report;
  routes.routes.for_each_route([&](topo::NodeId src, topo::NodeId dst,
                                   const HostRoute& route) {
    const std::string& src_name = map.name(src);
    const std::string& dst_name = map.name(dst);
    const auto live_src = live.find_host(src_name);
    SANMAP_CHECK_MSG(live_src.has_value(),
                     "mapped host " << src_name
                                    << " does not exist in the fabric");
    ++report.routes_checked;
    const auto delivery =
        net.send(*live_src, route.turns, nullptr, at + report.elapsed);
    if (delivery.delivered() &&
        live.name(delivery.destination) == dst_name) {
      report.elapsed +=
          cost.send_overhead + delivery.latency + cost.receive_overhead;
      return;
    }
    report.elapsed += cost.send_overhead + cost.probe_timeout;
    report.broken.push_back(BrokenRoute{src_name, dst_name, delivery.status});
  });
  return report;
}

}  // namespace sanmap::routing
