// sanmap — command-line front end to the library.
//
//   sanmap gen    --topology now|now-c|now-a|now-b|hypercube|mesh|torus|
//                             ring|star|fattree|multipod|random [shape flags]
//                 [--out FILE]
//   sanmap info   --in FILE [--mapper HOST]
//   sanmap map    --in FILE [--mapper HOST] [--algorithm berkeley|labeled|
//                             myricom|identity|randomized]
//                 [--federate SPEC [--overlap N]]
//                 [--collision cut-through|circuit] [--out FILE]
//   sanmap routes --in FILE [--root NAME] [--sample N]
//                 [--engine updown|dfs] [--optimize]
//   sanmap lint   --in FILE [--root NAME] [--seed N] [--json]
//                 [--engine updown|dfs] [--optimize]
//                 [--map-only] [--hop-limit N] [--imbalance-threshold X]
//                 [--sabotage-turn]
//   sanmap dot    --in FILE [--out FILE]
//   sanmap serve  --in FILE [--master HOST] [--ticks N] [--interval-ms M]
//                 [--federate SPEC [--overlap N]]
//                 [--engine updown|dfs] [--optimize]
//                 [--faults SPEC | --churn SPEC [--churn-seed N]]
//                 [--snapshot-out FILE]
//   sanmap query  --snapshot FILE [--src HOST --dst HOST] [--sample N]
//
// Files use the "sanmap topology v1" text format (see
// src/topology/serialize.hpp); "-" means stdin/stdout.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>

#include "analysis/analyzer.hpp"
#include "common/flags.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "federation/federated_mapper.hpp"
#include "mapper/berkeley_mapper.hpp"
#include "mapper/id_mapper.hpp"
#include "mapper/incremental.hpp"
#include "mapper/labeled_mapper.hpp"
#include "mapper/randomized_mapper.hpp"
#include "myricom/myricom_mapper.hpp"
#include "probe/probe_engine.hpp"
#include "routing/deadlock.hpp"
#include "routing/engine.hpp"
#include "routing/optimizer.hpp"
#include "routing/routes.hpp"
#include "service/map_catalog.hpp"
#include "service/query_engine.hpp"
#include "service/refresh_loop.hpp"
#include "service/snapshot_codec.hpp"
#include "simnet/churn.hpp"
#include "simnet/fault_schedule.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/isomorphism.hpp"
#include "topology/serialize.hpp"
#include "verify/scenario_case.hpp"

namespace {

using namespace sanmap;

topo::Topology read_input(const std::string& path) {
  if (path == "-") {
    return topo::read_topology(std::cin);
  }
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  return topo::read_topology(in);
}

void write_output(const std::string& path, const std::string& content) {
  if (path == "-") {
    std::cout << content;
    return;
  }
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open " + path + " for writing");
  }
  out << content;
  std::cerr << "wrote " << path << "\n";
}

routing::EngineKind parse_engine_flag(const std::string& name) {
  const auto kind = routing::parse_engine(name);
  if (!kind) {
    throw std::runtime_error("unknown routing engine " + name +
                             " (expected updown or dfs)");
  }
  return *kind;
}

topo::NodeId pick_mapper(const topo::Topology& t, const std::string& name) {
  if (!name.empty()) {
    const auto host = t.find_host(name);
    if (!host) {
      throw std::runtime_error("no host named " + name);
    }
    return *host;
  }
  if (const auto util = t.find_host("C.util")) {
    return *util;
  }
  if (t.num_hosts() == 0) {
    throw std::runtime_error("topology has no hosts to map from");
  }
  return t.hosts().front();
}

int cmd_gen(int argc, const char* const* argv) {
  common::Flags flags;
  flags.define("topology", "now",
               "now|now-c|now-a|now-b|hypercube|mesh|torus|ring|star|"
               "fattree|multipod|random|megafattree|dragonfly");
  flags.define("out", "-", "output file, - for stdout");
  flags.define("case", "false",
               "emit a .sancase scenario (quiescent, cut-through, mapper = "
               "first host) instead of a bare topology");
  flags.define("dim", "3", "hypercube dimension");
  flags.define("width", "4", "mesh/torus width");
  flags.define("height", "4", "mesh/torus height");
  flags.define("switches", "10", "ring/random switch count");
  flags.define("hosts", "2", "hosts per switch (regular topologies)");
  flags.define("random-hosts", "10", "total hosts (random)");
  flags.define("extra-links", "5", "extra links (random)");
  flags.define("pods", "3", "pod count (multipod)");
  flags.define("pod-leaves", "3", "leaf switches per pod (multipod)");
  flags.define("seed", "1", "seed (random/dragonfly)");
  flags.define("levels", "4", "tree levels (megafattree)");
  flags.define("leaves", "512", "leaf switches (megafattree)");
  flags.define("taper", "2", "upper-level width divisor (megafattree)");
  flags.define("groups", "16", "group count (dragonfly)");
  flags.define("group-switches", "8", "switches per group (dragonfly)");
  flags.define("group-hosts", "4", "hosts per group (dragonfly)");
  if (!flags.parse(argc, argv)) {
    return 0;
  }
  const std::string kind = flags.get("topology");
  const int hosts = static_cast<int>(flags.get_int("hosts"));
  topo::Topology t;
  if (kind == "now") {
    t = topo::now_cluster();
  } else if (kind == "now-c") {
    t = topo::now_subcluster(topo::Subcluster::kC, "C");
  } else if (kind == "now-a") {
    t = topo::now_subcluster(topo::Subcluster::kA, "A");
  } else if (kind == "now-b") {
    t = topo::now_subcluster(topo::Subcluster::kB, "B");
  } else if (kind == "hypercube") {
    t = topo::hypercube(static_cast<int>(flags.get_int("dim")), hosts);
  } else if (kind == "mesh") {
    t = topo::mesh(static_cast<int>(flags.get_int("width")),
                   static_cast<int>(flags.get_int("height")), hosts);
  } else if (kind == "torus") {
    t = topo::torus(static_cast<int>(flags.get_int("width")),
                    static_cast<int>(flags.get_int("height")), hosts);
  } else if (kind == "ring") {
    t = topo::ring(static_cast<int>(flags.get_int("switches")), hosts);
  } else if (kind == "star") {
    t = topo::star(static_cast<int>(flags.get_int("switches")) % 9, hosts);
  } else if (kind == "fattree") {
    t = topo::fat_tree({});
  } else if (kind == "multipod") {
    topo::MultiPodOptions options;
    options.pods = static_cast<int>(flags.get_int("pods"));
    options.leaf_switches_per_pod =
        static_cast<int>(flags.get_int("pod-leaves"));
    options.hosts_per_leaf = hosts;
    t = topo::multi_pod(options);
  } else if (kind == "random") {
    common::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
    t = topo::random_irregular(
        static_cast<int>(flags.get_int("switches")),
        static_cast<int>(flags.get_int("random-hosts")),
        static_cast<int>(flags.get_int("extra-links")), rng);
  } else if (kind == "megafattree") {
    topo::MegaFatTreeOptions options;
    options.levels = static_cast<int>(flags.get_int("levels"));
    options.leaf_switches = static_cast<int>(flags.get_int("leaves"));
    options.taper = static_cast<int>(flags.get_int("taper"));
    options.hosts_per_leaf = hosts;
    t = topo::mega_fat_tree(options);
  } else if (kind == "dragonfly") {
    topo::DragonflyishOptions options;
    options.groups = static_cast<int>(flags.get_int("groups"));
    options.switches_per_group =
        static_cast<int>(flags.get_int("group-switches"));
    options.hosts_per_group = static_cast<int>(flags.get_int("group-hosts"));
    common::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
    t = topo::dragonfly_ish(options, rng);
  } else {
    throw std::runtime_error("unknown topology kind: " + kind);
  }
  if (flags.get("case") == "true") {
    verify::ScenarioCase scenario;
    scenario.name = kind;
    scenario.network = t;
    write_output(flags.get("out"), verify::to_text(scenario));
  } else {
    write_output(flags.get("out"), topo::to_text(t));
  }
  return 0;
}

int cmd_info(int argc, const char* const* argv) {
  common::Flags flags;
  flags.define("in", "-", "input topology file");
  flags.define("mapper", "", "mapper host name (for Q / search depth)");
  if (!flags.parse(argc, argv)) {
    return 0;
  }
  const topo::Topology t = read_input(flags.get("in"));
  std::cout << "hosts        : " << t.num_hosts() << "\n";
  std::cout << "switches     : " << t.num_switches() << "\n";
  std::cout << "links        : " << t.num_wires() << "\n";
  std::cout << "connected    : " << (topo::connected(t) ? "yes" : "no")
            << "\n";
  if (topo::connected(t) && t.num_nodes() > 0) {
    std::cout << "diameter     : " << topo::diameter(t) << "\n";
  }
  std::cout << "bridges      : " << topo::bridges(t).size() << " ("
            << topo::switch_bridges(t).size() << " switch-bridges)\n";
  const auto f = topo::separated_set(t);
  const auto f_count = std::count(f.begin(), f.end(), true);
  std::cout << "|F|          : " << f_count
            << " (nodes behind switch-bridges; the mappable core is N-F)\n";
  if (topo::connected(t) && t.num_hosts() >= 2 && t.num_switches() >= 1) {
    const topo::NodeId mapper = pick_mapper(t, flags.get("mapper"));
    std::cout << "mapper       : " << t.name(mapper) << "\n";
    const int q = topo::q_value(t, mapper);
    std::cout << "Q            : " << q << "\n";
    std::cout << "search depth : " << q + topo::diameter(t) + 1
              << " (Q + D + 1)\n";
  }
  return 0;
}

// Shared by `map --federate` and `serve --federate`: run the full sharded
// pipeline (partition, concurrent region sessions, boundary resolution,
// route recomputation, certification) and narrate it.
federation::FederatedResult run_federated(const topo::Topology& t,
                                          const std::string& spec,
                                          int overlap_margin,
                                          const std::string& root_name,
                                          std::uint64_t route_seed,
                                          routing::EngineKind engine,
                                          bool optimize,
                                          const simnet::FaultSchedule* faults,
                                          simnet::CollisionModel collision) {
  federation::FederationConfig config;
  config.spec = federation::parse_federation_spec(spec);
  config.partition.overlap_margin = overlap_margin;
  config.collision = collision;
  config.root_name = root_name;
  config.route_seed = route_seed;
  config.engine = engine;
  config.optimize = optimize;
  config.faults = faults;
  federation::FederatedMapper federated(t, config);

  common::Table regions(
      {"region", "mapper", "switches", "depth", "nodes", "probes", "time"});
  const federation::FederatedResult result = federated.run();
  for (const federation::RegionOutcome& r : result.regions) {
    regions.add_row({r.name, t.name(r.mapper),
                     std::to_string(r.switches_assigned),
                     std::to_string(r.depth), std::to_string(r.nodes_mapped),
                     std::to_string(r.probes) +
                         (r.budget_exceeded ? " (OVER BUDGET)" : ""),
                     r.elapsed.str()});
  }
  std::cerr << regions;
  std::cerr << "boundary  : " << result.boundary_switches
            << " switches on region boundaries, " << result.boundary_conflicts
            << " cross-region fusions resolved\n";
  std::cerr << "merged    : " << result.map.num_hosts() << " hosts, "
            << result.map.num_switches() << " switches, "
            << result.map.num_wires() << " links ("
            << result.merge.loaded_vertices << " vertices loaded, "
            << result.merge.pruned << " pruned)\n";
  std::cerr << "probes    : " << result.total_probes << " across all regions\n";
  std::cerr << "time      : " << result.elapsed.str()
            << " (max over regions + merge, simulated)\n";
  std::cerr << "certified : " << (result.certified ? "yes" : "NO") << "\n";
  for (const std::string& reason : result.uncertified_reasons) {
    std::cerr << "            - " << reason << "\n";
  }
  return result;
}

int cmd_map(int argc, const char* const* argv) {
  common::Flags flags;
  flags.define("in", "-", "input topology file");
  flags.define("mapper", "", "mapper host name");
  flags.define("algorithm", "berkeley",
               "berkeley|labeled|myricom|identity|randomized");
  flags.define("collision", "cut-through", "cut-through|circuit");
  flags.define("previous", "",
               "previous map file: verify it and repair locally instead of "
               "mapping from scratch (berkeley algorithm only)");
  flags.define("federate", "",
               "shard the fabric and map regions concurrently: "
               "\"auto:<k>[@<anchor-host>]\" or \"[name=]host,...\"");
  flags.define("overlap", "2",
               "federation overlap margin (extra region probe depth)");
  flags.define("out", "", "write the mapped topology here");
  flags.define("verify", "true", "check the map against the ground truth");
  if (!flags.parse(argc, argv)) {
    return 0;
  }
  const topo::Topology t = read_input(flags.get("in"));
  const auto collision = flags.get("collision") == "circuit"
                             ? simnet::CollisionModel::kCircuit
                             : simnet::CollisionModel::kCutThrough;

  if (!flags.get("federate").empty()) {
    const federation::FederatedResult result = run_federated(
        t, flags.get("federate"), static_cast<int>(flags.get_int("overlap")),
        /*root_name=*/"", /*route_seed=*/1, routing::EngineKind::kUpDown,
        /*optimize=*/false, /*faults=*/nullptr, collision);
    if (flags.get_bool("verify")) {
      const bool ok = topo::isomorphic(result.map, topo::core(t));
      std::cerr << "verified  : "
                << (ok ? "isomorphic to the ground truth" : "MISMATCH")
                << "\n";
      if (!ok) {
        return 1;
      }
    }
    if (const std::string out = flags.get("out"); !out.empty()) {
      write_output(out, topo::to_text(result.map));
    }
    return result.certified ? 0 : 1;
  }

  const topo::NodeId mapper = pick_mapper(t, flags.get("mapper"));
  const std::string algorithm = flags.get("algorithm");

  simnet::HardwareExtensions ext;
  ext.self_identifying_switches = algorithm == "identity";
  ext.hosts_answer_early_hits = algorithm == "randomized";
  simnet::Network net(t, collision, simnet::CostModel{},
                      simnet::FaultModel{}, 1, ext);
  probe::ProbeEngine engine(net, mapper);

  topo::Topology map;
  std::uint64_t probes = 0;
  common::SimTime elapsed;
  bool expects_full_n = false;  // identity/myricom map N, others N - F
  if (!flags.get("previous").empty()) {
    if (algorithm != "berkeley") {
      throw std::runtime_error("--previous works with --algorithm berkeley");
    }
    mapper::IncrementalConfig config;
    config.base.search_depth = topo::search_depth(t, mapper);
    const auto result =
        mapper::IncrementalMapper(engine, read_input(flags.get("previous")),
                                  config)
            .run();
    std::cerr << "verify    : " << result.verification_probes
              << " probes, "
              << (result.unchanged
                      ? "map unchanged"
                      : std::to_string(result.discrepancies.size()) +
                            " discrepancies repaired")
              << "\n";
    for (const std::string& d : result.discrepancies) {
      std::cerr << "            - " << d << "\n";
    }
    map = result.map;
    probes = result.probes.total();
    elapsed = result.elapsed;
  } else if (algorithm == "berkeley" || algorithm == "labeled") {
    mapper::MapperConfig config;
    config.search_depth = topo::search_depth(t, mapper);
    const auto result =
        algorithm == "labeled"
            ? mapper::LabeledMapper(engine, config).run()
            : mapper::BerkeleyMapper(engine, config).run();
    map = result.map;
    probes = result.probes.total();
    elapsed = result.elapsed;
  } else if (algorithm == "randomized") {
    mapper::RandomizedConfig config;
    config.base.search_depth = topo::search_depth(t, mapper);
    config.wild_probes = static_cast<int>(t.num_hosts()) * 4;
    const auto result = mapper::RandomizedMapper(engine, config).run();
    map = result.map;
    probes = result.probes.total();
    elapsed = result.elapsed;
  } else if (algorithm == "identity") {
    const auto result = mapper::IdMapper(engine).run();
    map = result.map;
    probes = result.probes.total();
    elapsed = result.elapsed;
    expects_full_n = true;
  } else if (algorithm == "myricom") {
    const auto result = myricom::MyricomMapper(net, mapper).run();
    map = result.map;
    probes = result.probes.total();
    elapsed = result.elapsed;
    expects_full_n = true;
  } else {
    throw std::runtime_error("unknown algorithm: " + algorithm);
  }

  std::cerr << "algorithm : " << algorithm << " (" << to_string(collision)
            << ")\n";
  std::cerr << "mapped    : " << map.num_hosts() << " hosts, "
            << map.num_switches() << " switches, " << map.num_wires()
            << " links\n";
  std::cerr << "probes    : " << probes << "\n";
  std::cerr << "time      : " << elapsed.str() << " (simulated)\n";
  if (flags.get_bool("verify")) {
    const bool ok = expects_full_n
                        ? topo::isomorphic(map, t)
                        : topo::isomorphic(map, topo::core(t));
    std::cerr << "verified  : "
              << (ok ? "isomorphic to the ground truth" : "MISMATCH")
              << "\n";
    if (!ok) {
      return 1;
    }
  }
  if (const std::string out = flags.get("out"); !out.empty()) {
    write_output(out, topo::to_text(map));
  }
  return 0;
}

int cmd_routes(int argc, const char* const* argv) {
  common::Flags flags;
  flags.define("in", "-", "input topology file (typically a mapped one)");
  flags.define("root", "", "UP*/DOWN* root switch name (default: farthest "
                           "from hosts)");
  flags.define("sample", "10", "sample routes to print");
  flags.define("seed", "1", "load-balance seed");
  flags.define("engine", "updown", "routing engine: updown|dfs");
  flags.define("optimize", "false",
               "run the skew/funnel route optimizer over the table");
  if (!flags.parse(argc, argv)) {
    return 0;
  }
  const topo::Topology t = read_input(flags.get("in"));
  routing::UpDownOptions options;
  if (const std::string root = flags.get("root"); !root.empty()) {
    for (const topo::NodeId s : t.switches()) {
      if (t.name(s) == root) {
        options.root = s;
      }
    }
    if (!options.root) {
      throw std::runtime_error("no switch named " + root);
    }
  }
  routing::RoutingResult routes = routing::compute_routes(
      t, parse_engine_flag(flags.get("engine")), options,
      static_cast<std::uint64_t>(flags.get_int("seed")));
  if (flags.get_bool("optimize")) {
    const routing::OptimizerReport opt = routing::optimize_routes(t, routes);
    std::cout << "optimizer     : max channel load " << opt.max_load_before
              << " -> " << opt.max_load_after << " (" << opt.path_moves
              << " path moves, " << opt.cable_moves << " cable moves"
              << (opt.reverted ? ", 1+ rounds reverted" : "") << ")\n";
  }
  const auto analysis = routing::analyze_routes(t, routes);
  std::cout << "engine        : " << routing::to_string(routes.meta.engine)
            << "\n";
  std::cout << "root          : " << t.name(routes.orientation.root())
            << "\n";
  std::cout << "routes        : " << routes.routes.size() << " (mean "
            << common::fmt(routes.mean_hops(), 2) << " hops, max "
            << routes.max_hops() << ")\n";
  std::cout << "deadlock-free : "
            << (analysis.deadlock_free ? "yes" : "NO — cycle found") << " ("
            << analysis.dependencies << " channel dependencies)\n";
  std::cout << "compliant     : "
            << (routing::updown_compliant(routes) ? "yes" : "NO") << "\n";

  common::Table sample({"source", "destination", "hops", "turns"});
  std::int64_t remaining = flags.get_int("sample");
  for (const auto& [key, route] : routes.routes) {
    if (remaining-- <= 0) {
      break;
    }
    sample.add_row({t.name(key.first), t.name(key.second),
                    std::to_string(route.hops()),
                    simnet::to_string(route.turns)});
  }
  std::cout << "\n" << sample;
  return analysis.deadlock_free ? 0 : 1;
}

// Parses a --faults spec: comma-separated timeline events over the input
// topology, e.g. "link-down:4@150,node-down:h3@200,flap:7@64x0.5".
//   link-down:<wire-id>@<ms>      link-up:<wire-id>@<ms>
//   node-down:<name>@<ms>         node-up:<name>@<ms>
//   flap:<wire-id>@<period-ms>x<duty>
simnet::FaultSchedule parse_faults(const std::string& spec,
                                   const topo::Topology& t) {
  simnet::FaultSchedule schedule;
  if (spec.empty()) {
    return schedule;
  }
  const auto node_by_name = [&](const std::string& name) {
    for (const topo::NodeId n : t.nodes()) {
      if (t.name(n) == name) {
        return n;
      }
    }
    throw std::runtime_error("faults: no node named " + name);
  };
  std::stringstream events(spec);
  std::string event;
  while (std::getline(events, event, ',')) {
    const auto colon = event.find(':');
    const auto at = event.find('@');
    if (colon == std::string::npos || at == std::string::npos || at < colon) {
      throw std::runtime_error("faults: malformed event " + event);
    }
    const std::string kind = event.substr(0, colon);
    const std::string target = event.substr(colon + 1, at - colon - 1);
    const std::string when = event.substr(at + 1);
    if (kind == "flap") {
      const auto x = when.find('x');
      if (x == std::string::npos) {
        throw std::runtime_error("faults: flap needs <period-ms>x<duty>");
      }
      schedule.flapping_link(
          static_cast<topo::WireId>(std::stoul(target)),
          common::SimTime::ms(std::stoll(when.substr(0, x))),
          std::stod(when.substr(x + 1)));
      continue;
    }
    const common::SimTime instant = common::SimTime::ms(std::stoll(when));
    if (kind == "link-down") {
      schedule.link_down(static_cast<topo::WireId>(std::stoul(target)),
                         instant);
    } else if (kind == "link-up") {
      schedule.link_up(static_cast<topo::WireId>(std::stoul(target)), instant);
    } else if (kind == "node-down") {
      schedule.node_down(node_by_name(target), instant);
    } else if (kind == "node-up") {
      schedule.node_up(node_by_name(target), instant);
    } else {
      throw std::runtime_error("faults: unknown event kind " + kind);
    }
  }
  return schedule;
}

int cmd_serve(int argc, const char* const* argv) {
  common::Flags flags;
  flags.define("in", "-", "input topology file (the live fabric)");
  flags.define("master", "", "mapper/master host name");
  flags.define("ticks", "10", "health-check cycles to run");
  flags.define("interval-ms", "50", "virtual time between checks");
  flags.define("root", "", "UP*/DOWN* root switch name");
  flags.define("seed", "1", "route load-balance seed");
  flags.define("engine", "updown",
               "routing engine for every published snapshot: updown|dfs");
  flags.define("optimize", "false",
               "run the skew/funnel route optimizer on every candidate");
  flags.define("faults", "",
               "fault timeline, e.g. link-down:4@150,node-down:h3@200,"
               "flap:7@64x0.5");
  flags.define("churn", "",
               "churn scenario, e.g. "
               "\"rolling(start=1s,every=5s,down=2s,count=4)\" — compiled "
               "into a fault schedule anchored after bootstrap (grammar: "
               "src/simnet/churn.hpp)");
  flags.define("churn-seed", "1", "churn target-selection seed");
  flags.define("federate", "",
               "bootstrap epoch 1 by federated mapping instead of a single "
               "master session: \"auto:<k>[@<anchor>]\" or \"[name=]host,...\"");
  flags.define("overlap", "2",
               "federation overlap margin (extra region probe depth)");
  flags.define("snapshot-out", "", "write the final snapshot here (binary)");
  if (!flags.parse(argc, argv)) {
    return 0;
  }
  const topo::Topology t = read_input(flags.get("in"));
  const topo::NodeId master = pick_mapper(t, flags.get("master"));
  if (!flags.get("churn").empty() && !flags.get("faults").empty()) {
    throw std::runtime_error("serve: --faults and --churn are exclusive "
                             "(a churn scenario compiles its own timeline)");
  }
  const simnet::FaultSchedule schedule = parse_faults(flags.get("faults"), t);

  simnet::Network net(t);
  if (flags.get("churn").empty()) {
    net.attach_faults(&schedule);
  }
  service::MapCatalog catalog;
  service::RefreshConfig config;
  config.master_name = t.name(master);
  config.check_interval =
      common::SimTime::ms(flags.get_int("interval-ms"));
  config.root_name = flags.get("root");
  config.route_seed = static_cast<std::uint64_t>(flags.get_int("seed"));
  config.engine = parse_engine_flag(flags.get("engine"));
  config.optimize = flags.get_bool("optimize");
  service::RefreshLoop loop(net, catalog, config);

  if (!flags.get("federate").empty()) {
    // Federated bootstrap: shard the fabric, map regions concurrently, and
    // publish the certified merged model as epoch 1. The loop's own tick()
    // only bootstraps an *empty* catalog, so it picks up from here with
    // plain health checks — and its incremental/full remap rungs take over
    // on any later breakage.
    const federation::FederatedResult result = run_federated(
        t, flags.get("federate"), static_cast<int>(flags.get_int("overlap")),
        flags.get("root"),
        static_cast<std::uint64_t>(flags.get_int("seed")), config.engine,
        config.optimize, flags.get("churn").empty() ? &schedule : nullptr,
        simnet::CollisionModel::kCutThrough);
    if (!result.certified) {
      std::cerr << "bootstrap : REFUSED — uncertified merged map is not "
                   "publishable\n";
      return 1;
    }
    service::SnapshotOptions snapshot_options;
    snapshot_options.root_name = flags.get("root");
    snapshot_options.route_seed =
        static_cast<std::uint64_t>(flags.get_int("seed"));
    snapshot_options.engine = config.engine;
    snapshot_options.optimize = config.optimize;
    snapshot_options.source = "federated-bootstrap";
    const auto publish = catalog.publish(service::build_snapshot(
        result.map, snapshot_options, result.elapsed));
    if (!publish.published()) {
      std::cerr << "bootstrap : publish refused ("
                << to_string(publish.status) << ")\n";
      return 1;
    }
    std::cerr << "bootstrap : epoch " << publish.epoch << " at "
              << result.elapsed.str() << " (federated, "
              << result.regions.size() << " regions, " << result.total_probes
              << " probes)\n";
  } else {
    const auto boot = loop.bootstrap();
    std::cerr << "bootstrap : epoch " << boot.epoch_after << " at "
              << boot.at.str() << " (" << boot.probes_used << " probes, "
              << (boot.distribution_complete ? "tables distributed"
                                             : "DISTRIBUTION INCOMPLETE")
              << ")\n";
  }

  // Churn clauses are anchored after bootstrap (the loop's clock only
  // starts once the fabric is mapped); the mapper host is immune, so the
  // scenario can never take the service's own seat away.
  simnet::FaultSchedule churn_schedule;
  if (!flags.get("churn").empty()) {
    const simnet::ChurnSpec spec =
        simnet::parse_churn_spec(flags.get("churn"));
    const simnet::ChurnGenerator generator(
        spec.shifted(loop.now()),
        static_cast<std::uint64_t>(flags.get_int("churn-seed")));
    churn_schedule = generator.compile(t, {master});
    net.attach_faults(&churn_schedule);
    std::cerr << "churn     : " << churn_schedule.events()
              << " fault events over "
              << spec.horizon(t.num_switches()).str()
              << " past bootstrap (seed " << flags.get_int("churn-seed")
              << ")\n";
  }

  common::Table table(
      {"tick", "t", "checked", "broken", "action", "health", "epoch"});
  const std::int64_t ticks = flags.get_int("ticks");
  for (std::int64_t i = 0; i < ticks; ++i) {
    const auto report = loop.tick();
    std::string action = "observe";
    if (report.backoff_active) {
      action = "backoff";
    } else if (report.budget_exhausted) {
      action = "budget";
    } else if (report.remapped) {
      action = std::string(to_string(report.remap)) +
               (report.escalated ? "(escalated)" : "") + " -> " +
               to_string(report.publish_status);
    }
    table.add_row({std::to_string(i), report.at.str(),
                   std::to_string(report.routes_checked),
                   std::to_string(report.broken), action,
                   service::to_string(report.health),
                   std::to_string(report.epoch_after)});
  }
  std::cout << table;

  const auto stats = catalog.stats();
  std::cerr << "catalog   : " << stats.published << " published, "
            << stats.rejected_unsafe << " rejected unsafe, "
            << stats.rejected_stale << " rejected stale\n";
  const auto gate = catalog.gate_stats();
  std::cerr << "gate      : " << gate.incremental_escalated << " analysed, "
            << gate.rejected_stale_lints << " stale-lint refusals\n";
  const service::SnapshotPtr current = catalog.current();
  if (current && !flags.get("snapshot-out").empty()) {
    service::write_snapshot_file(flags.get("snapshot-out"), *current);
    std::cerr << "wrote " << flags.get("snapshot-out") << " (epoch "
              << current->epoch << ")\n";
  }
  return current && current->deadlock_free ? 0 : 1;
}

int cmd_query(int argc, const char* const* argv) {
  common::Flags flags;
  flags.define("snapshot", "", "snapshot file written by sanmap serve");
  flags.define("src", "", "source host name");
  flags.define("dst", "", "destination host name");
  flags.define("sample", "0", "also print the first N routes");
  if (!flags.parse(argc, argv)) {
    return 0;
  }
  if (flags.get("snapshot").empty()) {
    throw std::runtime_error("--snapshot is required");
  }
  const service::MapSnapshot snapshot =
      service::read_snapshot_file(flags.get("snapshot"));
  std::cout << "epoch         : " << snapshot.epoch << " (from "
            << snapshot.options.source << " at " << snapshot.created_at.str()
            << ")\n";
  std::cout << "fabric        : " << snapshot.map.num_hosts() << " hosts, "
            << snapshot.map.num_switches() << " switches, "
            << snapshot.map.num_wires() << " links\n";
  std::cout << "routes        : " << snapshot.routes.routes.size() << " (mean "
            << common::fmt(snapshot.mean_hops, 2) << " hops, max "
            << snapshot.max_hops << ")\n";
  std::cout << "deadlock-free : " << (snapshot.deadlock_free ? "yes" : "NO")
            << " (verified on load; " << snapshot.dependencies
            << " channel dependencies)\n";

  if (!flags.get("src").empty() || !flags.get("dst").empty()) {
    const auto answer = service::RouteQueryEngine::route_on(
        snapshot, flags.get("src"), flags.get("dst"));
    if (!answer.found) {
      std::cerr << "no route " << flags.get("src") << " -> "
                << flags.get("dst") << "\n";
      return 1;
    }
    std::cout << "route         : " << flags.get("src") << " -> "
              << flags.get("dst") << ", " << answer.hops << " hops, turns "
              << simnet::to_string(answer.turns) << "\n";
  }

  if (std::int64_t remaining = flags.get_int("sample"); remaining > 0) {
    common::Table sample({"source", "destination", "hops", "turns"});
    for (const auto& [key, route] : snapshot.routes.routes) {
      if (remaining-- <= 0) {
        break;
      }
      sample.add_row({snapshot.map.name(key.first),
                      snapshot.map.name(key.second),
                      std::to_string(route.hops()),
                      simnet::to_string(route.turns)});
    }
    std::cout << "\n" << sample;
  }
  return 0;
}

// Reads one lint input (file path or "-" for stdin) and dispatches on
// content, not extension, so piped stdin works the same as files:
// a .sancase scenario, a to_dot export, or a topology v1 file.
topo::Topology read_lint_input(const std::string& path) {
  std::string text;
  {
    std::ostringstream buffer;
    if (path == "-") {
      buffer << std::cin.rdbuf();
    } else {
      std::ifstream in(path);
      if (!in) {
        throw std::runtime_error("cannot open " + path);
      }
      buffer << in.rdbuf();
    }
    text = buffer.str();
  }
  if (text.rfind("# sanmap case v1", 0) == 0) {
    return verify::case_from_text(text).network;
  }
  if (text.find_first_not_of(" \t\r\n") != std::string::npos &&
      text.compare(text.find_first_not_of(" \t\r\n"), 5, "graph") == 0) {
    return topo::dot_from_text(text);
  }
  return topo::from_text(text);
}

// The human-readable tail of a lint run (the --json path bypasses this).
// Returns the report's exit code.
int print_lint_result(const analysis::AnalysisResult& result) {
  std::cout << result.report.text();
  if (result.analyzed_routes) {
    std::cout << "legality : " << result.legality.routes.size()
              << " routes from root " << result.legality.root_name << ", "
              << (result.legality.all_legal ? "all legal"
                                            : "ILLEGAL TURNS FOUND")
              << "\n";
    std::cout << "deadlock : "
              << (result.deadlock.deadlock_free ? "acyclic" : "CYCLE") << " ("
              << result.deadlock.channels << " channels, "
              << result.deadlock.dependencies << " dependencies)\n";
  }
  std::cout << "verdict  : "
            << (result.report.exit_code() == 0
                    ? "clean"
                    : result.report.exit_code() == 1 ? "warnings" : "ERRORS")
            << "\n";
  return result.report.exit_code();
}

// sanmap lint: the static analyzer's CLI face. Reads a topology v1 file,
// a to_dot export, or a .sancase scenario (auto-detected), runs sanlint,
// and exits with the report's max severity (0 clean/info, 1 warnings,
// 2 errors).
int cmd_lint(int argc, const char* const* argv) {
  common::Flags flags;
  flags.define("in", "-",
               "input: topology v1, sanmap dot export, or .sancase");
  flags.define("root", "", "UP*/DOWN* root switch name");
  flags.define("seed", "1", "route load-balance seed");
  flags.define("engine", "updown", "routing engine: updown|dfs");
  flags.define("optimize", "false",
               "run the skew/funnel route optimizer before linting");
  flags.define("json", "false", "emit the full report as JSON");
  flags.define("map-only", "false", "fabric lints only, skip the route phase");
  flags.define("hop-limit", "0", "warn on routes longer than this (0 = off)");
  flags.define("imbalance-threshold", "6.0",
               "warn when max channel load exceeds mean x this");
  flags.define("sabotage-turn", "false",
               "inject an illegal down-to-up turn into one route first "
               "(self-check: lint must then fail with SL101)");
  if (!flags.parse(argc, argv)) {
    return 0;
  }

  topo::Topology fabric = read_lint_input(flags.get("in"));

  analysis::AnalyzerOptions options;
  options.lints.hop_limit = static_cast<int>(flags.get_int("hop-limit"));
  options.lints.load_imbalance_threshold =
      flags.get_double("imbalance-threshold");

  analysis::AnalysisResult result;
  const bool routable = !flags.get_bool("map-only") &&
                        fabric.num_switches() >= 1 && fabric.num_hosts() >= 1;
  if (routable) {
    // Route over the component a mapper would discover: lints about the
    // rest of the fabric still come from the full-map fabric pass below.
    topo::Topology local = fabric;
    std::vector<int> component;
    topo::components(local, component);
    const topo::NodeId anchor = local.hosts().front();
    for (const topo::NodeId n : local.nodes()) {
      if (component[n] != component[anchor]) {
        local.remove_node(n);
      }
    }
    local = local.compacted();
    routing::UpDownOptions route_options;
    if (const std::string root = flags.get("root"); !root.empty()) {
      for (const topo::NodeId s : local.switches()) {
        if (local.name(s) == root) {
          route_options.root = s;
        }
      }
      if (!route_options.root) {
        throw std::runtime_error("no switch named " + root +
                                 " in the mapper's component");
      }
    }
    if (local.num_switches() >= 1) {
      routing::RoutingResult routes = routing::compute_routes(
          local, parse_engine_flag(flags.get("engine")), route_options,
          static_cast<std::uint64_t>(flags.get_int("seed")));
      if (flags.get_bool("optimize")) {
        routing::optimize_routes(local, routes);
      }
      if (flags.get_bool("sabotage-turn")) {
        const std::string injected =
            analysis::inject_down_up_turn(local, routes);
        if (injected.empty()) {
          throw std::runtime_error(
              "--sabotage-turn: topology offers no injectable detour");
        }
        std::cerr << "sabotage  : " << injected << "\n";
      }
      result = analysis::analyze(local, routes, options);
    } else {
      result = analysis::analyze_map(local, options);
    }
    // Fabric lints over the FULL map too (dangling wires or port clashes
    // outside the mapped component still deserve diagnostics), deduped by
    // the report's own per-code cap.
    if (local.num_nodes() != fabric.num_nodes()) {
      analysis::AnalysisResult whole = analysis::analyze_map(fabric, options);
      result.report.merge(whole.report);
    }
  } else {
    result = analysis::analyze_map(fabric, options);
  }

  if (flags.get_bool("json")) {
    std::cout << analysis::to_json(result) << "\n";
    return result.report.exit_code();
  }
  return print_lint_result(result);
}

int cmd_dot(int argc, const char* const* argv) {
  common::Flags flags;
  flags.define("in", "-", "input topology file");
  flags.define("out", "-", "output dot file");
  if (!flags.parse(argc, argv)) {
    return 0;
  }
  write_output(flags.get("out"), topo::to_dot(read_input(flags.get("in"))));
  return 0;
}

void usage() {
  std::cerr << "usage: sanmap <gen|info|map|routes|lint|serve|query|dot> "
               "[flags]\n"
               "run a subcommand with --help for its flags\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string command = argv[1];
  // A global --verbose anywhere on the line lowers the log threshold; it is
  // stripped before subcommand flag parsing.
  std::vector<const char*> args;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--verbose") {
      common::set_log_threshold(common::LogLevel::kDebug);
      continue;
    }
    args.push_back(argv[i]);
  }
  const int sub_argc = static_cast<int>(args.size());
  const char* const* sub_argv = args.data();
  try {
    if (command == "gen") {
      return cmd_gen(sub_argc, sub_argv);
    }
    if (command == "info") {
      return cmd_info(sub_argc, sub_argv);
    }
    if (command == "map") {
      return cmd_map(sub_argc, sub_argv);
    }
    if (command == "routes") {
      return cmd_routes(sub_argc, sub_argv);
    }
    if (command == "lint") {
      return cmd_lint(sub_argc, sub_argv);
    }
    if (command == "serve") {
      return cmd_serve(sub_argc, sub_argv);
    }
    if (command == "query") {
      return cmd_query(sub_argc, sub_argv);
    }
    if (command == "dot") {
      return cmd_dot(sub_argc, sub_argv);
    }
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "sanmap " << command << ": " << e.what() << "\n";
    return 1;
  }
}
