// Dynamic reconfiguration — the paper's §1 motivation: "these networks
// should be dynamically reconfigurable, automatically adapting to the
// addition or removal of hosts, switches and links."
//
// A sequence of reconfiguration events is applied to a live network; after
// each one the system re-maps, recomputes deadlock-free routes, and reports
// what changed.
//
//   ./dynamic_reconfiguration [--events N] [--seed N]
#include <iostream>

#include "analysis/certificates.hpp"
#include "common/flags.hpp"
#include "common/rng.hpp"
#include "mapper/berkeley_mapper.hpp"
#include "mapper/incremental.hpp"
#include "probe/probe_engine.hpp"
#include "routing/routes.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/isomorphism.hpp"

namespace {

using namespace sanmap;

/// The map carried between cycles by the incremental path.
topo::Topology g_previous_map;
bool g_have_previous = false;

/// One map-and-route cycle; returns false on any inconsistency. After the
/// first full mapping, later cycles use incremental verification + local
/// repair (the cheap path a production system would take).
bool remap(const topo::Topology& network, topo::NodeId mapper_host,
           const char* what) {
  simnet::Network net(network);
  probe::ProbeEngine engine(net, mapper_host);
  topo::Topology map;
  std::uint64_t probes = 0;
  common::SimTime elapsed;
  std::string how;
  if (!g_have_previous) {
    mapper::MapperConfig config;
    config.search_depth = topo::search_depth(network, mapper_host);
    const auto result = mapper::BerkeleyMapper(engine, config).run();
    map = result.map;
    probes = result.probes.total();
    elapsed = result.elapsed;
    how = "full map";
  } else {
    mapper::IncrementalConfig config;
    config.base.search_depth = topo::search_depth(network, mapper_host);
    const auto result =
        mapper::IncrementalMapper(engine, g_previous_map, config).run();
    map = result.map;
    probes = result.probes.total();
    elapsed = result.elapsed;
    how = result.unchanged
              ? "verified"
              : "repaired (" + std::to_string(result.findings.size()) +
                    " discrepancies)";
  }
  g_previous_map = map;
  g_have_previous = true;

  const bool correct = topo::isomorphic(map, topo::core(network));
  const auto routes = routing::compute_updown_routes(map);
  const bool deadlock_free =
      analysis::build_deadlock_certificate(map, routes).deadlock_free;

  std::cout << what << ": " << how << " -> " << map.num_hosts() << "h/"
            << map.num_switches() << "s/" << map.num_wires() << "w in "
            << elapsed.str() << " with " << probes << " probes; map "
            << (correct ? "correct" : "WRONG") << ", routes "
            << (deadlock_free ? "deadlock-free" : "CYCLIC") << "\n";
  return correct && deadlock_free;
}

}  // namespace

int main(int argc, char** argv) {
  common::Flags flags;
  flags.define("events", "6", "number of reconfiguration events");
  flags.define("seed", "7", "random seed for event selection");
  if (!flags.parse(argc, argv)) {
    return 0;
  }
  common::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));

  topo::Topology network = topo::now_subcluster(topo::Subcluster::kC, "C");
  const topo::NodeId mapper_host = *network.find_host("C.util");
  if (!remap(network, mapper_host, "initial        ")) {
    return 1;
  }

  int added_hosts = 0;
  int added_switches = 0;
  const auto events = flags.get_int("events");
  for (std::int64_t e = 0; e < events; ++e) {
    switch (rng.below(4)) {
      case 0: {  // add a host on a random switch with a free port
        std::vector<topo::NodeId> candidates;
        for (const topo::NodeId s : network.switches()) {
          if (network.free_port(s)) {
            candidates.push_back(s);
          }
        }
        if (candidates.empty()) {
          continue;
        }
        const topo::NodeId host =
            network.add_host("new.h" + std::to_string(added_hosts++));
        network.connect_any(host, rng.pick(candidates));
        if (!remap(network, mapper_host, "add host       ")) {
          return 1;
        }
        break;
      }
      case 1: {  // add a switch linked twice into the fabric, plus a host
        std::vector<topo::NodeId> candidates;
        for (const topo::NodeId s : network.switches()) {
          if (network.free_port(s)) {
            candidates.push_back(s);
          }
        }
        if (candidates.size() < 2) {
          continue;
        }
        const topo::NodeId sw =
            network.add_switch("new.s" + std::to_string(added_switches++));
        network.connect_any(sw, candidates[0]);
        network.connect_any(sw, candidates[1]);
        const topo::NodeId host =
            network.add_host("new.h" + std::to_string(added_hosts++));
        network.connect_any(host, sw);
        if (!remap(network, mapper_host, "add switch     ")) {
          return 1;
        }
        break;
      }
      case 2: {  // remove a random non-utility host
        std::vector<topo::NodeId> candidates;
        for (const topo::NodeId h : network.hosts()) {
          if (h != mapper_host) {
            candidates.push_back(h);
          }
        }
        if (candidates.empty()) {
          continue;
        }
        network.remove_node(rng.pick(candidates));
        if (!remap(network, mapper_host, "remove host    ")) {
          return 1;
        }
        break;
      }
      case 3: {  // remove a random redundant switch-to-switch link
        std::vector<topo::WireId> candidates;
        for (const topo::WireId w : network.wires()) {
          const topo::Wire& wire = network.wire(w);
          if (!network.is_switch(wire.a.node) ||
              !network.is_switch(wire.b.node)) {
            continue;
          }
          topo::Topology probe = network;
          probe.disconnect(w);
          if (topo::connected(probe)) {
            candidates.push_back(w);  // removable without partitioning
          }
        }
        if (candidates.empty()) {
          continue;
        }
        network.disconnect(rng.pick(candidates));
        if (!remap(network, mapper_host, "remove link    ")) {
          return 1;
        }
        break;
      }
      default:
        break;
    }
  }
  std::cout << "OK: the map tracked " << events
            << " reconfiguration events\n";
  return 0;
}
