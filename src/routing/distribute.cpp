#include "routing/distribute.hpp"

#include <vector>

#include "common/check.hpp"

namespace sanmap::routing {

namespace {

/// Per host index, its serialized table: per route a destination id (2
/// bytes), a length byte, and one byte per turn — read off the trees.
std::vector<std::size_t> table_bytes(const RoutingResult& routes) {
  const RouteTable& table = routes.routes;
  std::vector<std::size_t> bytes(table.hosts().size(), 0);
  table.for_each_tree([&](const RouteTable::Tree& tree) {
    for (std::uint32_t i = 0; i < tree.routed.size(); ++i) {
      if (tree.routed[i] != 0) {
        bytes[i] += 3 + tree.len[table.start(i)];
      }
    }
  });
  return bytes;
}

/// `host`'s entry of table_bytes(), zero for a host the table lacks.
std::size_t payload_of(const RoutingResult& routes,
                       const std::vector<std::size_t>& bytes,
                       topo::NodeId host) {
  const std::uint32_t i = routes.routes.host_index(host);
  return i == RouteTable::kNone ? 0 : bytes[i];
}

}  // namespace

DistributionResult distribute_tables(simnet::Network& net,
                                     const RoutingResult& routes,
                                     topo::NodeId master) {
  const topo::Topology& topo = net.topology();
  SANMAP_CHECK(topo.node_alive(master) && topo.is_host(master));

  DistributionResult result;
  result.complete = true;
  const auto& cost = net.cost();
  const std::vector<std::size_t> bytes = table_bytes(routes);
  for (const topo::NodeId host : topo.hosts()) {
    if (host == master) {
      continue;
    }
    const std::size_t payload = payload_of(routes, bytes, host);
    result.bytes += payload;
    ++result.messages;

    // Ship it along the master's route to that host. The message is larger
    // than a probe; account its serialization over the wire.
    const HostRoute path = routes.route(master, host);
    const auto delivery = net.send(master, path.turns);
    if (!delivery.delivered() || delivery.destination != host) {
      result.complete = false;
      result.elapsed += cost.send_overhead + cost.probe_timeout;
      continue;
    }
    result.elapsed += cost.send_overhead + delivery.latency +
                      cost.flit_time() * static_cast<std::int64_t>(payload) +
                      cost.receive_overhead;
  }
  return result;
}

DistributionResult distribute_tables(simnet::Network& net,
                                     const RoutingResult& routes,
                                     const topo::Topology& map,
                                     const std::string& master_name,
                                     common::SimTime at) {
  const topo::Topology& live = net.topology();
  const auto map_master = map.find_host(master_name);
  const auto live_master = live.find_host(master_name);
  SANMAP_CHECK_MSG(map_master.has_value() && live_master.has_value(),
                   "distribution master " << master_name
                                          << " must exist in map and fabric");

  DistributionResult result;
  result.complete = true;
  const auto& cost = net.cost();
  const std::vector<std::size_t> bytes = table_bytes(routes);
  for (const topo::NodeId host : map.hosts()) {
    if (host == *map_master) {
      continue;
    }
    const std::size_t payload = payload_of(routes, bytes, host);
    result.bytes += payload;
    ++result.messages;

    const HostRoute path = routes.route(*map_master, host);
    const auto delivery =
        net.send(*live_master, path.turns, nullptr, at + result.elapsed);
    if (!delivery.delivered() ||
        live.name(delivery.destination) != map.name(host)) {
      result.complete = false;
      result.elapsed += cost.send_overhead + cost.probe_timeout;
      continue;
    }
    result.elapsed += cost.send_overhead + delivery.latency +
                      cost.flit_time() * static_cast<std::int64_t>(payload) +
                      cost.receive_overhead;
  }
  return result;
}

}  // namespace sanmap::routing
