// The full §5.5 pipeline on the 100-node Berkeley NOW:
//
//   1. map the network with the Berkeley algorithm (master mode),
//   2. compute mutually deadlock-free UP*/DOWN* routes from the map,
//   3. prove deadlock freedom with a channel-dependency certificate,
//   4. "distribute" per-interface route tables and validate every route by
//      replaying its turn sequence through the simulated fabric.
//
//   ./now_cluster [--election] [--dot out.dot]
#include <fstream>
#include <iostream>

#include "analysis/certificates.hpp"
#include "common/flags.hpp"
#include "mapper/berkeley_mapper.hpp"
#include "probe/probe_engine.hpp"
#include "routing/deadlock.hpp"
#include "routing/routes.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/isomorphism.hpp"
#include "topology/serialize.hpp"

int main(int argc, char** argv) {
  using namespace sanmap;
  common::Flags flags;
  flags.define("election", "false",
               "use leader-election mode instead of one master");
  flags.define("dot", "", "write the mapped topology as Graphviz dot");
  if (!flags.parse(argc, argv)) {
    return 0;
  }

  const topo::Topology network = topo::now_cluster();
  const topo::NodeId mapper_host = *network.find_host("C.util");
  std::cout << "network  : " << network.num_hosts() << " hosts, "
            << network.num_switches() << " switches, "
            << network.num_wires() << " links\n";

  // -- 1. map ---------------------------------------------------------------
  simnet::Network net(network);
  probe::ProbeOptions probe_options;
  probe_options.election = flags.get_bool("election");
  probe::ProbeEngine engine(net, mapper_host, probe_options);
  mapper::MapperConfig config;
  config.search_depth = topo::search_depth(network, mapper_host);
  const auto result = mapper::BerkeleyMapper(engine, config).run();
  std::cout << "mapping  : " << result.probes.total() << " probes, "
            << result.explorations << " switch explorations, peak model "
            << result.peak_model_vertices << " vertices, "
            << result.elapsed.str() << " simulated ("
            << (probe_options.election ? "election" : "master") << " mode)\n";
  if (!topo::isomorphic(result.map, topo::core(network))) {
    std::cerr << "map does not match the network — bug\n";
    return 1;
  }

  // -- 2. routes from the MAP (not the ground truth) --------------------------
  routing::UpDownOptions updown;
  if (const auto util = result.map.find_host("C.util")) {
    updown.ignore_hosts = {*util};  // §5.5 ignores the utility host
  }
  const auto routes = routing::compute_updown_routes(result.map, updown);
  const routing::TableSummary summary = routing::summarize(routes);
  const routing::HopSummary hops = summary.hops();
  std::cout << "routing  : root switch label 0 = map node "
            << routes.orientation.root() << ", "
            << routes.routes.size() << " host-pair routes, mean "
            << hops.mean << " hops, max " << hops.max << "\n";

  // -- 3. deadlock freedom ----------------------------------------------------
  const auto certificate =
      analysis::build_deadlock_certificate(result.map, summary);
  std::cout << "deadlock : " << certificate.dependencies
            << " channel dependencies over " << certificate.channels
            << " channels -> "
            << (certificate.deadlock_free ? "ACYCLIC (deadlock-free)"
                                          : "CYCLE!")
            << "\n";
  if (!certificate.deadlock_free || !summary.compliant) {
    return 1;
  }

  // -- 4. distribute and validate --------------------------------------------
  // The route tables are computed on the mapped graph; replay them on the
  // *mapped* fabric (what the interfaces believe) and count bytes.
  simnet::Network mapped_net(result.map);
  std::size_t table_bytes = 0;
  std::size_t validated = 0;
  for (const topo::NodeId src : result.map.hosts()) {
    for (const auto& route : routes.table_for(src)) {
      table_bytes += route.turns.size() + 2;  // turns + dest id + length
      const auto replay = mapped_net.send(src, route.turns);
      if (!replay.delivered()) {
        std::cerr << "route replay failed\n";
        return 1;
      }
      ++validated;
    }
  }
  std::cout << "tables   : distributed " << result.map.num_hosts()
            << " route tables, " << table_bytes << " bytes total, "
            << validated << " routes replay-validated\n";

  if (const std::string dot = flags.get("dot"); !dot.empty()) {
    std::ofstream out(dot);
    out << topo::to_dot(result.map);
    std::cout << "wrote " << dot << " (render with: dot -Tsvg)\n";
  }
  std::cout << "OK\n";
  return 0;
}
