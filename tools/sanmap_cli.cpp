// sanmap — command-line front end to the library.
//
//   sanmap gen    --topology now|now-c|now-a|now-b|hypercube|mesh|torus|
//                             ring|star|fattree|multipod|random [shape flags]
//                 [--case] [--out FILE]
//   sanmap info   --in FILE [--mapper HOST]
//   sanmap map    --in FILE [--mapper HOST] [--algorithm berkeley|labeled|
//                             myricom|identity|randomized] [--previous FILE]
//                 [--federate SPEC [--overlap N]]
//                 [--collision cut-through|circuit|packet] [--out FILE]
//   sanmap routes --in FILE [--root NAME] [--seed N] [--sample N]
//                 [--engine updown|dfs] [--optimize]
//   sanmap lint   --in FILE [--root NAME] [--seed N] [--json]
//                 [--engine updown|dfs] [--optimize]
//                 [--map-only] [--hop-limit N] [--imbalance-threshold X]
//                 [--sabotage-turn]
//   sanmap dot    --in FILE [--out FILE]
//   sanmap serve  --in FILE [--master HOST] [--ticks N] [--interval-ms M]
//                 [--federate SPEC [--overlap N]]
//                 [--seed N] [--engine updown|dfs] [--optimize]
//                 [--churn SPEC [--churn-seed N]] [--snapshot-out FILE]
//   sanmap query  --snapshot FILE [--src HOST --dst HOST] [--sample N]
//
// Every --in (and map --previous) reads a "sanmap topology v1" file, a
// `sanmap dot` export or a .sancase scenario, told apart by content; "-"
// means stdin/stdout. A case's mapper and collision lines are the defaults
// of map and serve, and serve plays its fault lines against the fabric.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
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

// Reads one input (file path or "-" for stdin) and dispatches on content,
// not extension, so piped stdin works the same as files: a .sancase
// scenario, a to_dot export, or a topology v1 file. A bare fabric is a case
// with no mapper line and no faults.
verify::ScenarioCase load_case(const std::string& path) {
  std::ostringstream buffer;
  if (path == "-") {
    buffer << std::cin.rdbuf();
  } else {
    std::ifstream file(path);
    if (!file) {
      throw std::runtime_error("cannot open " + path);
    }
    buffer << file.rdbuf();
  }
  std::istringstream in(std::move(buffer).str());
  const std::string_view text = in.view();
  if (text.starts_with("# sanmap case v1")) {
    return verify::read_case(in);
  }
  const auto first = text.find_first_not_of(" \t\r\n");
  verify::ScenarioCase input;
  input.network = first != std::string::npos &&
                          text.substr(first).starts_with("graph")
                      ? topo::read_dot(in)
                      : topo::read_topology(in);
  return input;
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

// The mapper (or master) host: the named one, else the case's mapper line,
// else the NOW cluster's C.util, else the first host.
topo::NodeId pick_mapper(const verify::ScenarioCase& input, std::string name) {
  const topo::Topology& t = input.network;
  if (name.empty()) {
    name = input.mapper_host;
  }
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

// The first host's component, compacted: the map `routes` and `lint` route
// over, as a mapper there would discover it.
topo::Topology routed_component(const topo::Topology& fabric) {
  if (fabric.num_hosts() == 0) {
    throw std::runtime_error("topology has no hosts to route between");
  }
  return topo::component_of(fabric, fabric.hosts().front()).compacted();
}

// The route choices `routes`, `lint` and `serve` share. Only the first two
// route a map that exists and take --root: a switch has no name before
// `serve` maps it.
void define_route_flags(common::Flags& flags, bool with_root) {
  if (with_root) {
    flags.define("root", "",
                 "UP*/DOWN* root switch name (default: farthest from hosts)");
  }
  flags.define("seed", "1", "route load-balance seed");
  flags.define("engine", "updown", "routing engine: updown|dfs");
  flags.define("optimize", "false",
               "run the skew/funnel route optimizer over every table");
}

routing::RouteChoices route_choices(const common::Flags& flags) {
  const auto engine = routing::parse_engine(flags.get("engine"));
  if (!engine) {
    throw std::runtime_error("unknown routing engine " + flags.get("engine") +
                             " (expected updown or dfs)");
  }
  return {.engine = *engine,
          .route_seed = static_cast<std::uint64_t>(flags.get_int("seed")),
          .optimize = flags.get_bool("optimize")};
}

// --root resolved in the map to route; an unknown root is refused here,
// before anything is routed.
routing::UpDownOptions named_root(const common::Flags& flags,
                                  const topo::Topology& t,
                                  const std::string& where = "") {
  routing::UpDownOptions updown;
  if (const std::string name = flags.get("root"); !name.empty()) {
    updown.root = t.find_switch(name);
    if (!updown.root) {
      throw std::runtime_error("no switch named " + name + where);
    }
  }
  return updown;
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
  const auto arg = [&](const char* name) {
    return static_cast<int>(flags.get_int(name));
  };
  const int hosts = arg("hosts");
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
    t = topo::hypercube(arg("dim"), hosts);
  } else if (kind == "mesh") {
    t = topo::mesh(arg("width"), arg("height"), hosts);
  } else if (kind == "torus") {
    t = topo::torus(arg("width"), arg("height"), hosts);
  } else if (kind == "ring") {
    t = topo::ring(arg("switches"), hosts);
  } else if (kind == "star") {
    t = topo::star(arg("switches") % 9, hosts);
  } else if (kind == "fattree") {
    t = topo::fat_tree({});
  } else if (kind == "multipod") {
    topo::MultiPodOptions options;
    options.pods = arg("pods");
    options.leaf_switches_per_pod = arg("pod-leaves");
    options.hosts_per_leaf = hosts;
    t = topo::multi_pod(options);
  } else if (kind == "random") {
    common::Rng rng(static_cast<std::uint64_t>(flags.get_int("seed")));
    t = topo::random_irregular(arg("switches"), arg("random-hosts"),
                               arg("extra-links"), rng);
  } else if (kind == "megafattree") {
    topo::MegaFatTreeOptions options;
    options.levels = arg("levels");
    options.leaf_switches = arg("leaves");
    options.taper = arg("taper");
    options.hosts_per_leaf = hosts;
    t = topo::mega_fat_tree(options);
  } else if (kind == "dragonfly") {
    topo::DragonflyishOptions options;
    options.groups = arg("groups");
    options.switches_per_group = arg("group-switches");
    options.hosts_per_group = arg("group-hosts");
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
  flags.define("in", "-", "input fabric");
  flags.define("mapper", "", "mapper host name (for Q / search depth)");
  if (!flags.parse(argc, argv)) {
    return 0;
  }
  const verify::ScenarioCase input = load_case(flags.get("in"));
  const topo::Topology& t = input.network;
  std::cout << "hosts        : " << t.num_hosts() << "\n";
  std::cout << "switches     : " << t.num_switches() << "\n";
  std::cout << "links        : " << t.num_wires() << "\n";
  const bool connected = topo::connected(t);
  std::cout << "connected    : " << (connected ? "yes" : "no") << "\n";
  // Where Q is defined its solve yields D as well; diameter() covers the
  // rest. A --mapper naming no host still fails after |F|, below.
  const bool q_defined =
      connected && t.num_hosts() >= 2 && t.num_switches() >= 1;
  const std::string mapper_name =
      flags.get("mapper").empty() ? input.mapper_host : flags.get("mapper");
  std::optional<topo::QAndDiameter> q_and_d;
  if (q_defined && (mapper_name.empty() || t.find_host(mapper_name))) {
    q_and_d = topo::q_and_diameter(t, pick_mapper(input, mapper_name));
  }
  if (connected && t.num_nodes() > 0) {
    std::cout << "diameter     : "
              << (q_and_d ? q_and_d->diameter : topo::diameter(t)) << "\n";
  }
  std::cout << "bridges      : " << topo::bridges(t).size() << " ("
            << topo::switch_bridges(t).size() << " switch-bridges)\n";
  const auto f = topo::separated_set(t);
  const auto f_count = std::count(f.begin(), f.end(), true);
  std::cout << "|F|          : " << f_count
            << " (nodes behind switch-bridges; the mappable core is N-F)\n";
  if (q_defined) {
    std::cout << "mapper       : " << t.name(pick_mapper(input, mapper_name))
              << "\n";
    std::cout << "Q            : " << q_and_d->q << "\n";
    std::cout << "search depth : " << q_and_d->q + q_and_d->diameter + 1
              << " (Q + D + 1)\n";
  }
  return 0;
}

// Shared by `map --federate` and `serve --federate`: run the full sharded
// pipeline (partition, concurrent region sessions, boundary resolution,
// route recomputation, certification) and narrate it.
federation::FederatedResult run_federated(
    const common::Flags& flags, const topo::Topology& t,
    const routing::RouteChoices& choices, const simnet::FaultSchedule* faults,
    simnet::CollisionModel collision) {
  federation::FederationConfig config;
  static_cast<routing::RouteChoices&>(config) = choices;
  config.spec = federation::parse_federation_spec(flags.get("federate"));
  config.partition.overlap_margin = static_cast<int>(flags.get_int("overlap"));
  config.collision = collision;
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

// One mapping run, whichever algorithm produced it: what `map` prints,
// verifies and writes.
struct Mapped {
  topo::Topology map;
  std::uint64_t probes = 0;
  common::SimTime elapsed;
  bool expects_full_n = false;  // identity/myricom map N, others N - F
  bool certified = true;        // a federated map's certificate
};

template <typename Result>
Mapped mapped(Result result, bool expects_full_n = false) {
  return {std::move(result.map), result.probes.total(), result.elapsed,
          expects_full_n};
}

int cmd_map(int argc, const char* const* argv) {
  common::Flags flags;
  flags.define("in", "-", "input fabric");
  flags.define("mapper", "", "mapper host name");
  flags.define("algorithm", "berkeley",
               "berkeley|labeled|myricom|identity|randomized");
  flags.define("collision", "",
               "cut-through|circuit|packet (default: the case's collision "
               "line, else cut-through)");
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
  verify::ScenarioCase input = load_case(flags.get("in"));
  const topo::NodeId mapper = pick_mapper(input, flags.get("mapper"));
  // A mapper discovers its own component; it is bounded and verified there.
  input.network = topo::component_of(input.network, mapper);
  const topo::Topology& t = input.network;
  simnet::CollisionModel collision = input.collision;  // cut-through if bare
  if (const std::string name = flags.get("collision"); !name.empty()) {
    const auto model = simnet::parse_collision(name);
    if (!model) {
      throw std::runtime_error("unknown collision model " + name +
                               " (expected cut-through, circuit or packet)");
    }
    collision = *model;
  }
  const std::string algorithm = flags.get("algorithm");
  const bool federated = !flags.get("federate").empty();

  Mapped m;
  if (federated) {
    federation::FederatedResult result =
        run_federated(flags, t, {}, /*faults=*/nullptr, collision);
    m = {std::move(result.map), result.total_probes, result.elapsed,
         /*expects_full_n=*/false, result.certified};
  } else {
    simnet::HardwareExtensions ext;
    ext.self_identifying_switches = algorithm == "identity";
    ext.hosts_answer_early_hits = algorithm == "randomized";
    simnet::Network net(t, collision, simnet::CostModel{},
                        simnet::FaultModel{}, 1, ext);
    probe::ProbeEngine engine(net, mapper);
    // §3.1.4's Q + D + 1 is an O(V · E) solve, run only if the exploration
    // reaches past its one-BFS floor; the probes are the same either way.
    const auto bound_depth = [&](mapper::MapperConfig& config) {
      config.search_depth = topo::search_depth_floor(t, mapper);
      config.exact_search_depth = [&] { return topo::search_depth(t, mapper); };
    };
    if (!flags.get("previous").empty()) {
      if (algorithm != "berkeley") {
        throw std::runtime_error("--previous works with --algorithm berkeley");
      }
      topo::Topology previous = load_case(flags.get("previous")).network;
      // Verification starts at the mapper's own switch in the previous map.
      if (!previous.find_host(t.name(mapper))) {
        throw std::runtime_error("the previous map " + flags.get("previous") +
                                 " has no host " + t.name(mapper) +
                                 ", the mapper; map from scratch instead");
      }
      mapper::IncrementalConfig config;
      bound_depth(config.base);
      mapper::IncrementalResult result =
          mapper::IncrementalMapper(engine, std::move(previous), config).run();
      std::cerr << "verify    : " << result.verification_probes
                << " probes, "
                << (result.unchanged
                        ? "map unchanged"
                        : std::to_string(result.findings.size()) +
                              " discrepancies repaired")
                << "\n";
      for (const mapper::Discrepancy& d : result.findings) {
        std::cerr << "            - " << d.detail << "\n";
      }
      m = mapped(std::move(result));
    } else if (algorithm == "berkeley" || algorithm == "labeled") {
      mapper::MapperConfig config;
      bound_depth(config);
      m = algorithm == "labeled"
              ? mapped(mapper::LabeledMapper(engine, config).run())
              : mapped(mapper::BerkeleyMapper(engine, config).run());
    } else if (algorithm == "randomized") {
      mapper::RandomizedConfig config;
      bound_depth(config.base);
      config.wild_probes = static_cast<int>(t.num_hosts()) * 4;
      m = mapped(mapper::RandomizedMapper(engine, config).run());
    } else if (algorithm == "identity") {
      m = mapped(mapper::IdMapper(engine).run(), /*expects_full_n=*/true);
    } else if (algorithm == "myricom") {
      m = mapped(myricom::MyricomMapper(net, mapper).run(),
                 /*expects_full_n=*/true);
    } else {
      throw std::runtime_error("unknown algorithm: " + algorithm);
    }
  }

  if (!federated) {  // run_federated narrated the merged map already
    std::cerr << "algorithm : " << algorithm << " (" << to_string(collision)
              << ")\n";
    std::cerr << "mapped    : " << m.map.num_hosts() << " hosts, "
              << m.map.num_switches() << " switches, " << m.map.num_wires()
              << " links\n";
    std::cerr << "probes    : " << m.probes << "\n";
    std::cerr << "time      : " << m.elapsed.str() << " (simulated)\n";
  }
  if (flags.get_bool("verify")) {
    const bool ok = m.expects_full_n ? topo::isomorphic(m.map, t)
                                     : topo::isomorphic(m.map, topo::core(t));
    std::cerr << "verified  : "
              << (ok ? "isomorphic to the ground truth" : "MISMATCH")
              << "\n";
    if (!ok) {
      return 1;
    }
  }
  if (const std::string out = flags.get("out"); !out.empty()) {
    write_output(out, topo::to_text(m.map));
  }
  return m.certified ? 0 : 1;
}

// The first `count` routes in key order, walked one by one.
common::Table route_sample(const topo::Topology& t,
                           const routing::RoutingResult& routes,
                           std::int64_t count) {
  common::Table sample({"source", "destination", "hops", "turns"});
  const routing::RouteTable& table = routes.routes;
  const auto hosts = static_cast<std::uint32_t>(table.hosts().size());
  routing::HostRoute route;
  for (std::uint32_t i = 0; i < hosts && count > 0; ++i) {
    for (std::uint32_t j = 0; j < hosts && count > 0; ++j) {
      if (i != j && table.walk(i, j, route)) {
        sample.add_row({t.name(table.hosts()[i]), t.name(table.hosts()[j]),
                        std::to_string(route.hops()),
                        simnet::to_string(route.turns)});
        --count;
      }
    }
  }
  return sample;
}

int cmd_routes(int argc, const char* const* argv) {
  common::Flags flags;
  flags.define("in", "-", "input fabric (typically a mapped one)");
  flags.define("sample", "10", "sample routes to print");
  define_route_flags(flags, /*with_root=*/true);
  if (!flags.parse(argc, argv)) {
    return 0;
  }
  const topo::Topology t =
      routed_component(load_case(flags.get("in")).network);
  const routing::UpDownOptions updown = named_root(flags, t);
  const routing::RouteChoices choices = route_choices(flags);
  if (t.num_switches() == 0) {
    throw std::runtime_error("the first host's component has no switch to "
                             "route through");
  }
  routing::OptimizerReport opt;
  const routing::RoutingResult routes =
      routing::route(t, choices, updown, &opt);
  if (choices.optimize) {
    std::cout << "optimizer     : max channel load " << opt.max_load_before
              << " -> " << opt.max_load_after << " (" << opt.path_moves
              << " path moves, " << opt.cable_moves << " cable moves"
              << (opt.reverted ? ", reverted" : "") << ")\n";
  }
  // One pass over the trees serves the certificate, the hop counts and
  // compliance.
  const routing::TableSummary summary = routing::summarize(routes);
  const analysis::DeadlockCertificate certificate =
      analysis::build_deadlock_certificate(t, summary);
  std::cout << "engine        : " << routing::to_string(choices.engine)
            << "\n";
  std::cout << "root          : " << t.name(routes.orientation.root())
            << "\n";
  const routing::HopSummary hops = summary.hops();
  std::cout << "routes        : " << routes.routes.size() << " (mean "
            << common::fmt(hops.mean, 2) << " hops, max " << hops.max
            << ")\n";
  std::cout << "deadlock-free : "
            << (certificate.deadlock_free ? "yes" : "NO — cycle found")
            << " (" << certificate.dependencies << " channel dependencies)\n";
  std::cout << "compliant     : "
            << (summary.compliant ? "yes" : "NO") << "\n";

  std::cout << "\n" << route_sample(t, routes, flags.get_int("sample"));
  return certificate.deadlock_free ? 0 : 1;
}

int cmd_serve(int argc, const char* const* argv) {
  common::Flags flags;
  flags.define("in", "-",
               "input fabric; a .sancase's fault lines play against it");
  flags.define("master", "", "mapper/master host name");
  flags.define("ticks", "10", "health-check cycles to run");
  flags.define("interval-ms", "50", "virtual time between checks");
  define_route_flags(flags, /*with_root=*/false);
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
  const verify::ScenarioCase input = load_case(flags.get("in"));
  const topo::Topology& t = input.network;
  const routing::RouteChoices choices = route_choices(flags);
  const topo::NodeId master = pick_mapper(input, flags.get("master"));
  if (!flags.get("churn").empty() && !input.quiescent()) {
    throw std::runtime_error("the input's fault lines and --churn are "
                             "exclusive (a churn scenario compiles its own "
                             "timeline)");
  }
  // A fabric with no fault lines gets no schedule, so every send of a
  // quiescent serve takes the simulator's resumed walk.
  simnet::FaultSchedule schedule = input.schedule();
  const simnet::FaultSchedule* faults =
      input.quiescent() ? nullptr : &schedule;

  simnet::Network net(t, input.collision);
  net.attach_faults(faults);
  service::MapCatalog catalog;
  service::RefreshConfig config;
  static_cast<routing::RouteChoices&>(config) = choices;
  config.master_name = t.name(master);
  config.check_interval =
      common::SimTime::ms(flags.get_int("interval-ms"));
  service::RefreshLoop loop(net, catalog, config);

  if (!flags.get("federate").empty()) {
    // Federated bootstrap: the certified merged map is epoch 1. The loop's
    // tick() only bootstraps an *empty* catalog, so it carries on from here
    // with health checks and, on any later breakage, its remap rungs.
    const federation::FederatedResult result = run_federated(
        flags, t, choices, faults, input.collision);
    if (!result.certified) {
      std::cerr << "bootstrap : REFUSED — uncertified merged map is not "
                   "publishable\n";
      return 1;
    }
    service::SnapshotOptions snapshot_options;
    static_cast<routing::RouteChoices&>(snapshot_options) = choices;
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
  if (!flags.get("churn").empty()) {
    const simnet::ChurnSpec spec =
        simnet::parse_churn_spec(flags.get("churn"));
    const simnet::ChurnGenerator generator(
        spec.shifted(loop.now()),
        static_cast<std::uint64_t>(flags.get_int("churn-seed")));
    schedule = generator.compile(t, {master});
    net.attach_faults(&schedule);
    std::cerr << "churn     : " << schedule.events()
              << " fault events over "
              << spec.horizon(t.num_switches()).str()
              << " past bootstrap (seed " << flags.get_int("churn-seed")
              << ")\n";
  }

  common::Table table(
      {"tick", "t", "probes", "findings", "action", "health", "epoch"});
  const std::int64_t ticks = flags.get_int("ticks");
  for (std::int64_t i = 0; i < ticks; ++i) {
    const auto report = loop.tick();
    std::string action = "observe";
    if (report.backoff_active) {
      action = "backoff";
    } else if (report.remapped) {
      action = std::string(to_string(report.remap)) +
               (report.escalated ? "(escalated)" : "") + " -> " +
               to_string(report.publish_status);
    }
    table.add_row({std::to_string(i), report.at.str(),
                   std::to_string(report.verify_probes),
                   std::to_string(report.findings), action,
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

  if (const std::int64_t count = flags.get_int("sample"); count > 0) {
    std::cout << "\n" << route_sample(snapshot.map, snapshot.routes, count);
  }
  return 0;
}

// sanmap lint: the static analyzer's CLI face. Runs sanlint over the input
// fabric and exits with the report's max severity (0 clean/info,
// 1 warnings, 2 errors).
int cmd_lint(int argc, const char* const* argv) {
  common::Flags flags;
  flags.define("in", "-", "input fabric");
  define_route_flags(flags, /*with_root=*/true);
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

  const topo::Topology fabric = load_case(flags.get("in")).network;

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
    const topo::Topology local = routed_component(fabric);
    const routing::UpDownOptions updown =
        named_root(flags, local, " in the mapper's component");
    const routing::RouteChoices choices = route_choices(flags);
    if (local.num_switches() >= 1) {
      routing::RoutingResult routes = routing::route(local, choices, updown);
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
      result = analysis::analyze_map(local);
    }
    // Fabric lints over the FULL map too (isolated nodes and the other
    // components lie outside the mapped one), deduped by the report's own
    // per-code cap.
    if (local.num_nodes() != fabric.num_nodes()) {
      analysis::AnalysisResult whole = analysis::analyze_map(fabric);
      result.report.merge(whole.report);
    }
  } else {
    result = analysis::analyze_map(fabric);
  }

  if (flags.get_bool("json")) {
    std::cout << analysis::to_json(result) << "\n";
    return result.report.exit_code();
  }
  std::cout << result.report.text();
  if (result.analyzed_routes) {
    std::cout << "legality : " << result.routes
              << " routes from root " << result.legality.root_name << ", "
              << (result.legality.all_legal() ? "all legal"
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

int cmd_dot(int argc, const char* const* argv) {
  common::Flags flags;
  flags.define("in", "-", "input fabric");
  flags.define("out", "-", "output dot file");
  if (!flags.parse(argc, argv)) {
    return 0;
  }
  write_output(flags.get("out"),
               topo::to_dot(load_case(flags.get("in")).network));
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
  const std::map<std::string, int (*)(int, const char* const*)> commands = {
      {"gen", cmd_gen},
      {"info", cmd_info},
      {"map", cmd_map},
      {"routes", cmd_routes},
      {"lint", cmd_lint},
      {"serve", cmd_serve},
      {"query", cmd_query},
      {"dot", cmd_dot},
  };
  try {
    if (const auto sub = commands.find(command); sub != commands.end()) {
      return sub->second(static_cast<int>(args.size()), args.data());
    }
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "sanmap " << command << ": " << e.what() << "\n";
    return 1;
  }
}
