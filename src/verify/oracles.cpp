#include "verify/oracles.hpp"

#include <algorithm>
#include <deque>
#include <map>
#include <sstream>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "analysis/analyzer.hpp"
#include "federation/federated_mapper.hpp"
#include "mapper/berkeley_mapper.hpp"
#include "mapper/incremental.hpp"
#include "mapper/robust_mapper.hpp"
#include "myricom/myricom_mapper.hpp"
#include "probe/probe_engine.hpp"
#include "routing/routes.hpp"
#include "topology/algorithms.hpp"
#include "topology/isomorphism.hpp"
#include "verify/conservation.hpp"

namespace sanmap::verify {

bool OracleReport::violates(const std::string& oracle) const {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const Violation& v) { return v.oracle == oracle; });
}

std::string OracleReport::summary() const {
  std::ostringstream oss;
  for (const Violation& v : violations) {
    oss << "VIOLATION " << v.oracle << ": " << v.detail << '\n';
  }
  for (const std::string& s : skipped) {
    oss << "skipped " << s << '\n';
  }
  return oss.str();
}

bool channel_paths_acyclic(
    const std::vector<std::vector<routing::Channel>>& paths) {
  // Dense channel indexing; dependency edges deduplicated per source.
  std::map<routing::Channel, std::size_t> index;
  const auto id_of = [&](const routing::Channel& ch) {
    return index.emplace(ch, index.size()).first->second;
  };
  std::vector<std::vector<std::size_t>> out;
  std::vector<std::size_t> in_degree;
  const auto grow = [&](std::size_t n) {
    if (out.size() <= n) {
      out.resize(n + 1);
      in_degree.resize(n + 1, 0);
    }
  };
  for (const auto& path : paths) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const std::size_t from = id_of(path[i]);
      const std::size_t to = id_of(path[i + 1]);
      grow(std::max(from, to));
      if (std::find(out[from].begin(), out[from].end(), to) ==
          out[from].end()) {
        out[from].push_back(to);
        ++in_degree[to];
      }
    }
  }
  grow(index.empty() ? 0 : index.size() - 1);
  // Kahn: repeatedly eliminate zero-in-degree channels; a leftover means a
  // cycle.
  std::vector<std::size_t> ready;
  for (std::size_t v = 0; v < in_degree.size(); ++v) {
    if (in_degree[v] == 0) {
      ready.push_back(v);
    }
  }
  std::size_t eliminated = 0;
  while (!ready.empty()) {
    const std::size_t v = ready.back();
    ready.pop_back();
    ++eliminated;
    for (const std::size_t w : out[v]) {
      if (--in_degree[w] == 0) {
        ready.push_back(w);
      }
    }
  }
  return eliminated == in_degree.size();
}

namespace {

using topo::NodeId;
using topo::Topology;

std::string describe(const Topology& t) {
  std::ostringstream oss;
  oss << t.num_hosts() << "h/" << t.num_switches() << "s/" << t.num_wires()
      << "w";
  return oss.str();
}

/// A copy of `t` restricted to the connected component containing `keep`.
Topology component_of(const Topology& t, NodeId keep) {
  Topology local = t;
  std::vector<int> component;
  topo::components(local, component);
  for (const NodeId n : local.nodes()) {
    if (component[n] != component[keep]) {
      local.remove_node(n);
    }
  }
  return local;
}

/// The §3.1.4 depth bound when the paper's standing assumptions hold;
/// otherwise a generous structural bound (depth only caps route length, so
/// overshooting is safe, undershooting is not).
int pick_search_depth(const Topology& local, NodeId mapper) {
  if (local.num_switches() >= 1 && local.num_hosts() >= 2 &&
      topo::connected(local)) {
    return topo::search_depth(local, mapper);
  }
  return std::max<int>(1, static_cast<int>(2 * local.num_wires() + 3));
}

void drain_conservation(ConservationChecker& checker, OracleReport& report) {
  checker.finish();
  for (const std::string& v : checker.violations()) {
    report.violations.push_back({"conservation", v});
  }
}

void run_quiescent_oracles(const ScenarioCase& c, const OracleOptions& options,
                           NodeId mapper, const Topology& local, int depth,
                           OracleReport& report) {
  bool have_berkeley = false;
  mapper::MapResult berkeley;
  if (options.berkeley) {
    simnet::Network net(c.network, c.collision);
    ConservationChecker checker(c.network);
    if (options.conservation) {
      net.attach_hook(&checker);
    }
    probe::ProbeEngine engine(net, mapper);
    mapper::MapperConfig config;
    config.search_depth = depth;
    config.max_explorations = options.max_explorations;
    config.sabotage_skip_merges = options.sabotage_skip_merges;
    try {
      berkeley = mapper::BerkeleyMapper(engine, config).run();
      have_berkeley = true;
    } catch (const std::exception& e) {
      report.violations.push_back({"berkeley-crash", e.what()});
    }
    if (options.conservation) {
      drain_conservation(checker, report);
    }
    if (have_berkeley) {
      const Topology truth = topo::core(local);
      if (!topo::isomorphic(berkeley.map, truth)) {
        report.violations.push_back(
            {"berkeley-iso", "map " + describe(berkeley.map) +
                                 " is not isomorphic to core " +
                                 describe(truth)});
      }
    }
  } else {
    report.skipped.push_back("berkeley-iso: disabled");
  }

  // Pipelined probing must be a pure re-timing of the serial engine: same
  // probe counters, an isomorphic map, elapsed() <= serial at window 8, and
  // elapsed() == serial exactly at window 1.
  if (options.pipeline && have_berkeley) {
    try {
      mapper::MapperConfig config;
      config.search_depth = depth;
      config.max_explorations = options.max_explorations;
      config.sabotage_skip_merges = options.sabotage_skip_merges;
      const auto run_with = [&](int window) {
        simnet::Network net(c.network, c.collision);
        probe::ProbeEngine engine(net, mapper);
        mapper::MapperConfig windowed = config;
        windowed.pipeline_window = window;
        return mapper::BerkeleyMapper(engine, windowed).run();
      };
      const mapper::MapResult piped = run_with(8);
      if (!(piped.probes == berkeley.probes)) {
        report.violations.push_back(
            {"pipeline-equiv",
             "window-8 probe counters diverge from serial: " +
                 std::to_string(piped.probes.total()) + " probes vs " +
                 std::to_string(berkeley.probes.total())});
      } else if (!topo::isomorphic(piped.map, berkeley.map)) {
        report.violations.push_back(
            {"pipeline-equiv", "window-8 map " + describe(piped.map) +
                                   " is not isomorphic to the serial map " +
                                   describe(berkeley.map)});
      } else if (piped.elapsed > berkeley.elapsed) {
        report.violations.push_back(
            {"pipeline-equiv", "window-8 elapsed " + piped.elapsed.str() +
                                   " exceeds serial " +
                                   berkeley.elapsed.str()});
      }
      const mapper::MapResult serial_again = run_with(1);
      if (serial_again.elapsed != berkeley.elapsed) {
        report.violations.push_back(
            {"pipeline-equiv", "window-1 elapsed " +
                                   serial_again.elapsed.str() +
                                   " does not reproduce serial " +
                                   berkeley.elapsed.str() + " exactly"});
      }
    } catch (const std::exception& e) {
      report.violations.push_back({"pipeline-crash", e.what()});
    }
  } else {
    report.skipped.push_back(options.pipeline
                                 ? "pipeline-equiv: no usable Berkeley map"
                                 : "pipeline-equiv: disabled");
  }

  if (options.myricom &&
      c.collision == simnet::CollisionModel::kCutThrough &&
      local.num_switches() >= 1) {
    simnet::Network net(c.network, c.collision);
    bool have_myricom = false;
    myricom::MyricomResult result;
    try {
      result = myricom::MyricomMapper(net, mapper).run();
      have_myricom = true;
    } catch (const std::exception& e) {
      report.violations.push_back({"myricom-crash", e.what()});
    }
    if (have_myricom) {
      if (!topo::isomorphic(result.map, local)) {
        report.violations.push_back(
            {"myricom-diff", "Myricom map " + describe(result.map) +
                                 " is not isomorphic to the full component " +
                                 describe(local)});
      } else if (have_berkeley &&
                 !topo::isomorphic(topo::core(result.map), berkeley.map)) {
        report.violations.push_back(
            {"myricom-diff",
             "core of Myricom map disagrees with the Berkeley map"});
      }
    }
  } else {
    report.skipped.push_back(
        options.myricom ? (local.num_switches() == 0
                               ? "myricom-diff: switchless component"
                               : "myricom-diff: requires cut-through")
                        : "myricom-diff: disabled");
  }

  if (options.deadlock && have_berkeley && berkeley.map.num_switches() >= 1 &&
      berkeley.map.num_hosts() >= 1) {
    try {
      const routing::RoutingResult routes =
          routing::compute_updown_routes(berkeley.map, {}, options.route_seed);
      if (!routing::updown_compliant(routes)) {
        report.violations.push_back(
            {"deadlock-updown", "a route takes a down-to-up turn"});
      }
      const auto paths =
          routing::route_channel_paths(berkeley.map, routes);
      const routing::DeadlockAnalysis analysis =
          routing::analyze_channel_paths(berkeley.map, paths);
      const bool independent = channel_paths_acyclic(paths);
      if (!analysis.deadlock_free) {
        report.violations.push_back(
            {"deadlock-cycle",
             "channel dependency cycle of " +
                 std::to_string(analysis.cycle.size()) + " channels"});
      }
      if (analysis.deadlock_free != independent) {
        report.violations.push_back(
            {"deadlock-differential",
             std::string("DFS coloring says ") +
                 (analysis.deadlock_free ? "acyclic" : "cyclic") +
                 " but Kahn elimination says " +
                 (independent ? "acyclic" : "cyclic")});
      }
    } catch (const std::exception& e) {
      report.violations.push_back({"routing-crash", e.what()});
    }
  } else {
    report.skipped.push_back(
        options.deadlock ? "deadlock: no usable Berkeley map"
                         : "deadlock: disabled");
  }

  // The static pass: run sanlint's analyzer over the same map and routes
  // and diff its deadlock verdict against both dynamic detectors. Any
  // disagreement means one of three independent implementations is wrong.
  if (options.analysis && have_berkeley &&
      berkeley.map.num_switches() >= 1 && berkeley.map.num_hosts() >= 1) {
    try {
      const routing::RoutingResult routes =
          routing::compute_updown_routes(berkeley.map, {}, options.route_seed);
      const analysis::AnalysisResult verdict =
          analysis::analyze(berkeley.map, routes);
      for (const analysis::Diagnostic& d : verdict.report.diagnostics()) {
        if (d.severity == analysis::Severity::kError) {
          report.violations.push_back(
              {"analysis-clean", d.code + " " + d.location + ": " + d.message});
        }
      }
      const auto paths = routing::route_channel_paths(berkeley.map, routes);
      const bool dfs_verdict =
          routing::analyze_channel_paths(berkeley.map, paths).deadlock_free;
      const bool kahn_verdict = channel_paths_acyclic(paths);
      if (verdict.analyzed_routes &&
          (verdict.deadlock.deadlock_free != dfs_verdict ||
           verdict.deadlock.deadlock_free != kahn_verdict)) {
        report.violations.push_back(
            {"analysis-deadlock-diff",
             std::string("static certificate says ") +
                 (verdict.deadlock.deadlock_free ? "acyclic" : "cyclic") +
                 " but DFS says " + (dfs_verdict ? "acyclic" : "cyclic") +
                 " and Kahn says " + (kahn_verdict ? "acyclic" : "cyclic")});
      }
      if (verdict.analyzed_routes) {
        std::vector<std::string> why;
        if (!analysis::check_legality(berkeley.map, routes, verdict.legality,
                                      &why) ||
            !analysis::check_deadlock(paths, verdict.deadlock, &why)) {
          report.violations.push_back(
              {"analysis-certificate",
               why.empty() ? "certificate re-check failed" : why.front()});
        }
      }
    } catch (const std::exception& e) {
      report.violations.push_back({"analysis-crash", e.what()});
    }
  } else {
    report.skipped.push_back(
        options.analysis ? "analysis-clean: no usable Berkeley map"
                         : "analysis-clean: disabled");
  }
}

void run_faulted_oracles(const ScenarioCase& c, const OracleOptions& options,
                         NodeId mapper, int depth, OracleReport& report) {
  if (!options.robust) {
    report.skipped.push_back("robust-iso: disabled");
    return;
  }
  simnet::Network net(c.network, c.collision);
  const simnet::FaultSchedule schedule = c.schedule();
  net.attach_faults(&schedule);
  ConservationChecker checker(c.network);
  if (options.conservation) {
    net.attach_hook(&checker);
  }
  probe::ProbeEngine engine(net, mapper);
  mapper::RobustConfig config;
  config.base.search_depth = depth;
  config.base.max_explorations = options.max_explorations;
  config.base.sabotage_skip_merges = options.sabotage_skip_merges;
  bool have_result = false;
  mapper::RobustResult result;
  try {
    result = mapper::RobustMapper(engine, config).run();
    have_result = true;
  } catch (const std::exception& e) {
    report.violations.push_back({"robust-crash", e.what()});
  }
  if (options.conservation) {
    drain_conservation(checker, report);
  }
  if (!have_result) {
    return;
  }
  if (c.has_flap()) {
    report.skipped.push_back(
        "robust-iso: flapping timeline (crash/conservation checks only)");
    return;
  }
  if (!result.converged) {
    report.skipped.push_back("robust-iso: session did not converge");
    return;
  }
  if (!result.quarantined_ports.empty()) {
    report.skipped.push_back("robust-iso: ports were quarantined");
    return;
  }
  // Blind-window race: a fault landing after the final clean sweep began
  // but before the session's end instant may postdate the last probe that
  // observed its port, so no mapper could reflect it. Holding the map to
  // surviving(elapsed) would then be an over-claim, not a bug.
  for (const FaultEvent& event : c.faults) {
    if (event.at >= result.stable_since && event.at <= result.elapsed) {
      report.skipped.push_back(
          "robust-iso: fault inside the final-sweep blind window");
      return;
    }
  }
  // The established Theorem-1-under-faults oracle: the surviving network at
  // convergence time, restricted to the mapper's component, cored.
  Topology alive = schedule.surviving(c.network, result.elapsed);
  if (mapper >= alive.node_capacity() || !alive.node_alive(mapper)) {
    report.skipped.push_back("robust-iso: mapper host itself failed");
    return;
  }
  const Topology truth = topo::core(component_of(alive, mapper));
  if (!topo::isomorphic(result.map, truth)) {
    report.violations.push_back(
        {"robust-iso", "healed map " + describe(result.map) +
                           " is not isomorphic to the surviving core " +
                           describe(truth)});
  }
}

// Incremental splice equivalence: after the (flap-free) timeline settles,
// an IncrementalMapper sweep restricted to the dirty region — the switches
// the fault events touch, expanded by dirty_radius over the pre-fault map —
// spliced into the pre-fault map must equal a from-scratch remap of the
// surviving fabric at the same instant (Theorem 1 applied to the splice),
// and must be strictly cheaper in probes when the region covers at most
// half the fabric's switches (the "single-region fault" regime the service
// counts on for its probe savings).
void run_incremental_oracle(const ScenarioCase& c, const OracleOptions& options,
                            NodeId mapper, int depth, OracleReport& report) {
  if (!options.incremental) {
    report.skipped.push_back("incremental-equiv: disabled");
    return;
  }
  if (c.has_flap()) {
    report.skipped.push_back("incremental-equiv: flapping timeline");
    return;
  }

  const simnet::FaultSchedule schedule = c.schedule();
  // Settle strictly past the last event: the fabric is static for both
  // sessions, so this is pure Theorem-1 territory (no blind window).
  common::SimTime settle{};
  for (const FaultEvent& event : c.faults) {
    settle = std::max(settle, event.at);
  }
  settle += common::SimTime::ms(1);

  // The previous epoch's model: the mapper-component core of the pre-fault
  // fabric (component_of/core preserve ids, so event-derived switch ids
  // stay valid in it).
  const Topology previous = topo::core(component_of(c.network, mapper));
  if (previous.num_switches() == 0) {
    report.skipped.push_back("incremental-equiv: switchless previous map");
    return;
  }

  Topology alive = schedule.surviving(c.network, settle);
  if (mapper >= alive.node_capacity() || !alive.node_alive(mapper)) {
    report.skipped.push_back("incremental-equiv: mapper host itself failed");
    return;
  }
  const Topology truth = topo::core(component_of(alive, mapper));

  // Dirty region: every previous-map switch a fault event touches — wire
  // endpoints for link events, the node plus its neighbors for node events
  // (a dead node takes all incident wires with it).
  std::unordered_set<NodeId> dirty;
  const auto add_switch = [&](NodeId n) {
    if (n < previous.node_capacity() && previous.node_alive(n) &&
        previous.is_switch(n)) {
      dirty.insert(n);
    }
  };
  for (const FaultEvent& event : c.faults) {
    switch (event.kind) {
      case FaultEvent::Kind::kLinkDown:
      case FaultEvent::Kind::kLinkUp: {
        const topo::Wire& wire = c.network.wire(event.wire);
        add_switch(wire.a.node);
        add_switch(wire.b.node);
        break;
      }
      case FaultEvent::Kind::kNodeDown:
      case FaultEvent::Kind::kNodeUp: {
        add_switch(event.node);
        if (event.node < c.network.node_capacity() &&
            c.network.node_alive(event.node)) {
          for (const topo::PortRef& ref : c.network.neighbors(event.node)) {
            add_switch(ref.node);
          }
        }
        break;
      }
      case FaultEvent::Kind::kFlap:
        break;  // unreachable: has_flap() returned above
    }
  }
  // Radius expansion over the previous map's switch graph.
  std::deque<std::pair<NodeId, int>> frontier;
  for (const NodeId s : dirty) {
    frontier.emplace_back(s, 0);
  }
  while (!frontier.empty()) {
    const auto [n, d] = frontier.front();
    frontier.pop_front();
    if (d >= options.dirty_radius) {
      continue;
    }
    for (const topo::PortRef& ref : previous.neighbors(n)) {
      if (previous.is_switch(ref.node) && dirty.insert(ref.node).second) {
        frontier.emplace_back(ref.node, d + 1);
      }
    }
  }
  std::vector<NodeId> region(dirty.begin(), dirty.end());
  std::sort(region.begin(), region.end());
  // An empty region (every touched switch was outside the mapper's core)
  // degenerates to a full verification sweep — still a valid equivalence.

  simnet::Network net(c.network, c.collision);
  net.attach_faults(&schedule);
  probe::ProbeEngine engine(net, mapper);
  engine.set_clock_base(settle);
  mapper::IncrementalConfig config;
  config.base.search_depth = depth;
  config.base.max_explorations = options.max_explorations;
  config.base.sabotage_skip_merges = options.sabotage_skip_merges;
  config.repair = true;
  config.region = region;

  bool have_result = false;
  mapper::IncrementalResult result;
  try {
    result = mapper::IncrementalMapper(engine, previous, config).run();
    have_result = true;
  } catch (const std::exception& e) {
    report.violations.push_back({"incremental-crash", e.what()});
  }
  if (!have_result) {
    return;
  }

  if (!topo::isomorphic(result.map, truth)) {
    report.violations.push_back(
        {"incremental-equiv",
         "spliced map " + describe(result.map) +
             " is not isomorphic to the surviving core " + describe(truth) +
             " (dirty region: " + std::to_string(region.size()) +
             " switches)"});
    return;
  }

  // Probe-cheapness half of the contract: localized faults must not cost a
  // full remap. Only claimed when the region covers at most half the
  // switches — beyond that the sweep-plus-repair bill legitimately
  // approaches a from-scratch run's.
  if (!region.empty() && region.size() * 2 <= previous.num_switches()) {
    simnet::Network full_net(c.network, c.collision);
    full_net.attach_faults(&schedule);
    probe::ProbeEngine full_engine(full_net, mapper);
    full_engine.set_clock_base(settle);
    mapper::MapperConfig full_config;
    full_config.search_depth = depth;
    full_config.max_explorations = options.max_explorations;
    full_config.sabotage_skip_merges = options.sabotage_skip_merges;
    try {
      const mapper::MapResult from_scratch =
          mapper::BerkeleyMapper(full_engine, full_config).run();
      if (result.probes.total() >= from_scratch.probes.total()) {
        report.violations.push_back(
            {"incremental-equiv",
             "single-region fault not cheaper: incremental spent " +
                 std::to_string(result.probes.total()) +
                 " probes, from-scratch " +
                 std::to_string(from_scratch.probes.total())});
      }
    } catch (const std::exception& e) {
      report.violations.push_back({"incremental-crash", e.what()});
    }
  }
}

// Federated mapping loses nothing: shard the mapper's component into
// auto-partitioned regions anchored at the mapper host, run the concurrent
// per-region sessions plus boundary resolution, and demand the merged model
// be Theorem-1 isomorphic to the monolithic truth core(C) — and certified.
// For faulted (flap-free) cases the oracle runs over the settled surviving
// fabric: the federation maps what the faults left standing, and the truth
// is that fabric's core.
void run_federated_oracle(const ScenarioCase& c, const OracleOptions& options,
                          NodeId mapper, OracleReport& report) {
  if (!options.federated) {
    report.skipped.push_back("federated-iso: disabled");
    return;
  }
  if (c.has_flap()) {
    report.skipped.push_back(
        "federated-iso: flapping timeline (no quiescent instant to shard at)");
    return;
  }
  Topology fabric = c.network;
  if (!c.quiescent()) {
    const simnet::FaultSchedule schedule = c.schedule();
    common::SimTime settle{};
    for (const FaultEvent& event : c.faults) {
      settle = std::max(settle, event.at);
    }
    settle += common::SimTime::ms(1);
    fabric = schedule.surviving(c.network, settle);
    if (mapper >= fabric.node_capacity() || !fabric.node_alive(mapper)) {
      report.skipped.push_back("federated-iso: mapper host itself failed");
      return;
    }
  }
  const Topology local = component_of(fabric, mapper);
  if (local.num_switches() == 0) {
    report.skipped.push_back("federated-iso: switchless component");
    return;
  }

  federation::FederationConfig config;
  config.spec.auto_regions =
      std::max(1, std::min(options.federated_regions,
                           static_cast<int>(local.num_hosts())));
  config.spec.anchor_host = fabric.name(mapper);
  config.collision = c.collision;
  config.max_explorations = options.max_explorations;
  config.route_seed = options.route_seed;
  config.sabotage_skip_merges = options.sabotage_skip_merges;

  bool have_result = false;
  federation::FederatedResult result;
  try {
    federation::FederatedMapper federated(fabric, config);
    result = federated.run();
    have_result = true;
  } catch (const std::exception& e) {
    report.violations.push_back({"federated-crash", e.what()});
  }
  if (!have_result) {
    return;
  }

  const Topology truth = topo::core(local);
  if (!topo::isomorphic(result.map, truth)) {
    report.violations.push_back(
        {"federated-iso",
         "merged map " + describe(result.map) +
             " is not isomorphic to the monolithic core " + describe(truth) +
             " (" + std::to_string(result.regions.size()) + " regions, " +
             std::to_string(result.boundary_conflicts) +
             " boundary fusions)"});
    return;
  }
  // A correct merge must also certify: the truth core is connected and
  // routable, so any uncertified_reason here is a federation bug, not an
  // operational condition.
  if (truth.num_hosts() >= 1 && truth.num_switches() >= 1 &&
      !result.certified) {
    report.violations.push_back(
        {"federated-certify",
         "merged map matches the monolithic core but failed certification: " +
             (result.uncertified_reasons.empty()
                  ? std::string("(no reason recorded)")
                  : result.uncertified_reasons.front())});
  }
}

}  // namespace

OracleReport run_oracles(const ScenarioCase& c, const OracleOptions& options) {
  OracleReport report;
  NodeId mapper = topo::kInvalidNode;
  try {
    mapper = c.mapper_node();
  } catch (const std::exception& e) {
    report.skipped.push_back(std::string("all: ") + e.what());
    return report;
  }
  const Topology local = component_of(c.network, mapper);
  const int depth = pick_search_depth(local, mapper);

  if (c.quiescent()) {
    run_quiescent_oracles(c, options, mapper, local, depth, report);
  } else {
    run_faulted_oracles(c, options, mapper, depth, report);
    run_incremental_oracle(c, options, mapper, depth, report);
  }
  run_federated_oracle(c, options, mapper, report);
  return report;
}

}  // namespace sanmap::verify
