#include "federation/federated_mapper.hpp"

#include <algorithm>
#include <stdexcept>

#include "analysis/analyzer.hpp"
#include "common/thread_pool.hpp"
#include "mapper/berkeley_mapper.hpp"
#include "probe/probe_engine.hpp"
#include "routing/engine.hpp"
#include "routing/optimizer.hpp"
#include "topology/algorithms.hpp"

namespace sanmap::federation {

namespace {

/// Outstanding-probe window of every region's mapper.
constexpr int kPipelineWindow = 8;

}  // namespace

FederatedMapper::FederatedMapper(const topo::Topology& fabric,
                                 FederationConfig config)
    : fabric_(&fabric),
      config_(std::move(config)),
      plan_(partition_fabric(fabric, config_.spec, config_.partition)) {}

FederatedResult FederatedMapper::run() {
  const std::size_t n = plan_.regions.size();
  std::vector<mapper::MapResult> locals(n);

  // The concurrent phase. Each region gets its own Network view of the
  // shared read-only fabric, so sessions never share mutable state; the
  // pool's parallel_for joins every worker before rethrowing the first
  // exception, so a throwing region can never leave the merge waiting on a
  // result that will not come.
  {
    common::ThreadPool pool(n);
    pool.parallel_for(n, [&](std::size_t i) {
      if (static_cast<int>(i) == config_.sabotage_region_throw) {
        throw std::runtime_error("federation: sabotaged region " +
                                 plan_.regions[i].name);
      }
      const Region& region = plan_.regions[i];
      simnet::Network net(*fabric_, config_.collision);
      if (config_.faults != nullptr) {
        net.attach_faults(config_.faults);
      }
      probe::ProbeEngine engine(net, region.mapper);
      mapper::MapperConfig mc;
      mc.search_depth = region.depth;
      mc.pipeline_window = kPipelineWindow;
      mc.max_explorations = config_.max_explorations;
      mc.sabotage_skip_merges = config_.sabotage_skip_merges;
      locals[i] = mapper::BerkeleyMapper(engine, mc).run();
    });
  }

  FederatedResult result;
  result.boundary_switches = plan_.boundary_switches;
  std::vector<topo::Topology> partials;
  partials.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const Region& region = plan_.regions[i];
    RegionOutcome outcome;
    outcome.name = region.name;
    outcome.mapper = region.mapper;
    outcome.depth = region.depth;
    outcome.switches_assigned = region.switches.size();
    outcome.nodes_mapped = locals[i].map.num_nodes();
    outcome.probes = locals[i].probes.total();
    outcome.elapsed = locals[i].elapsed;
    outcome.budget_exceeded = config_.region_probe_budget != 0 &&
                              outcome.probes > config_.region_probe_budget;
    result.budget_exceeded |= outcome.budget_exceeded;
    result.total_probes += outcome.probes;
    result.elapsed = std::max(result.elapsed, locals[i].elapsed);
    result.regions.push_back(std::move(outcome));
    partials.push_back(std::move(locals[i].map));
  }

  // Boundary resolution: the merge cascade in deterministic region order.
  result.map = mapper::merge_partial_maps(partials, &result.merge);
  result.boundary_conflicts = result.merge.merges;
  result.elapsed += mapper::kMergeCostPerVertex *
                    static_cast<std::int64_t>(result.merge.loaded_vertices);

  // Re-prove safety on the merged model before anyone may use it. Every
  // failure mode lands in uncertified_reasons instead of an exception: an
  // unmergeable federation is an operational condition (re-shard, raise the
  // overlap margin), not a programming error.
  if (result.map.num_hosts() == 0 || result.map.num_switches() == 0) {
    result.uncertified_reasons.push_back(
        "merged model is not routable (needs >= 1 host and >= 1 switch)");
    result.verdict = analysis::analyze_map(result.map);
    return result;
  }
  if (!topo::connected(result.map)) {
    result.uncertified_reasons.push_back(
        "merged model is disconnected: regions lack shared host evidence "
        "(raise the overlap margin)");
    result.verdict = analysis::analyze_map(result.map);
    return result;
  }
  routing::UpDownOptions route_options;
  if (!config_.root_name.empty()) {
    route_options.root = result.map.find_switch(config_.root_name);
    if (!route_options.root) {
      result.uncertified_reasons.push_back("no switch named " +
                                           config_.root_name +
                                           " in the merged model");
      result.verdict = analysis::analyze_map(result.map);
      return result;
    }
  }
  result.routes = routing::compute_routes(result.map, config_.engine,
                                          route_options, config_.route_seed);
  if (config_.optimize) {
    routing::optimize_routes(result.map, *result.routes);
  }
  result.verdict = analysis::analyze(result.map, *result.routes);
  for (const analysis::Diagnostic& d : result.verdict.report.diagnostics()) {
    if (d.severity == analysis::Severity::kError) {
      result.uncertified_reasons.push_back(d.code + " " + d.location + ": " +
                                           d.message);
    }
  }
  if (!result.verdict.analyzed_routes) {
    result.uncertified_reasons.push_back("route phase did not run");
  } else {
    if (!result.verdict.legality.all_legal()) {
      result.uncertified_reasons.push_back(
          "legality certificate records an illegal turn");
    }
    if (!result.verdict.deadlock.deadlock_free) {
      result.uncertified_reasons.push_back(
          "deadlock certificate records a dependency cycle");
    }
  }
  result.certified = result.uncertified_reasons.empty();
  return result;
}

}  // namespace sanmap::federation
