#include "routing/optimizer.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "routing/congestion.hpp"
#include "routing/deadlock.hpp"
#include "routing/updown_paths.hpp"

namespace sanmap::routing {

namespace {

/// Path-pass + cable-pass rounds. Two rounds settle the corpus and the
/// paper figures; more rounds are legal but change little.
constexpr int kMaxRounds = 2;

std::size_t max_load(const std::vector<std::size_t>& load) {
  std::size_t best = 0;
  for (const std::size_t n : load) {
    best = std::max(best, n);
  }
  return best;
}

/// Parallel switch-to-switch trunks: the cable groups the cable pass
/// balances and the final plan declares.
std::vector<bool> trunk_groups(const topo::Topology& topo,
                               const detail::UpDownPaths& paths) {
  std::vector<bool> trunk;
  trunk.reserve(paths.groups().size());
  for (const auto& group : paths.groups()) {
    trunk.push_back(paths.cables(group).size() >= 2 &&
                    topo.is_switch(paths.node(group.lo)) &&
                    topo.is_switch(paths.node(group.hi)));
  }
  return trunk;
}

/// Re-selects each route among its tied shortest alternatives, toward the
/// assignment minimizing (max resulting channel load, total load). Returns
/// the number of routes moved.
std::size_t path_pass(const topo::Topology& topo, RoutingResult& routes,
                      const detail::UpDownPaths& paths,
                      std::vector<std::size_t>& load) {
  std::size_t moves = 0;
  std::vector<std::size_t> cone;
  std::vector<std::size_t> apexes;
  detail::UpDownPaths::Choice best;
  detail::UpDownPaths::Choice scratch;
  topo::NodeId cone_of = topo::kInvalidNode;
  for (auto& [key, route] : routes.routes) {
    // Evaluate with this route's own traffic removed.
    for (std::size_t i = 0; i < route.wires.size(); ++i) {
      const bool a_to_b = topo.wire(route.wires[i]).a.node == route.nodes[i];
      --load[channel_slot(route.wires[i], a_to_b)];
    }
    const std::size_t si = paths.index(key.first);
    const std::size_t di = paths.index(key.second);
    if (key.first != cone_of) {  // routes are key-ordered: one cone a source
      cone_of = key.first;
      paths.up_cone(si, cone);
    }
    const int hops = paths.tied_apexes(si, di, cone, apexes);

    // Score of the current assignment, in the same units the candidates
    // are scored in: (max load after re-adding the route, total load
    // crossed).
    best.max_load = 0;
    best.total_load = 0;
    for (std::size_t i = 0; i < route.wires.size(); ++i) {
      const bool a_to_b = topo.wire(route.wires[i]).a.node == route.nodes[i];
      const std::size_t have = load[channel_slot(route.wires[i], a_to_b)];
      best.max_load = std::max(best.max_load, have + 1);
      best.total_load += have;
    }

    // Only same-cost alternatives are considered.
    if (hops == route.hops() &&
        paths.coldest_route(topo, si, di, apexes, load, best, scratch)) {
      route.nodes.clear();
      route.nodes.reserve(best.sequence.size());
      for (const std::size_t i : best.sequence) {
        route.nodes.push_back(paths.node(i));
      }
      route.wires = best.wires;
      recompute_turns(topo, route);
      ++moves;
    }
    for (std::size_t i = 0; i < route.wires.size(); ++i) {
      const bool a_to_b = topo.wire(route.wires[i]).a.node == route.nodes[i];
      ++load[channel_slot(route.wires[i], a_to_b)];
    }
  }
  return moves;
}

/// Re-deals the hops crossing every parallel trunk so per-cable totals
/// (both directions jointly) are within one of each other. Returns hops
/// actually moved to a different cable.
std::size_t cable_pass(const topo::Topology& topo, RoutingResult& routes,
                       const detail::UpDownPaths& paths,
                       const std::vector<bool>& trunk,
                       std::vector<std::size_t>& load) {
  const auto& groups = paths.groups();
  // Joint hop counts per cable, by position in the flat cable list. Each
  // trunk deals its own hops in a deterministic order — routes in key
  // order, hops in path order — to its coldest cable, first on ties; the
  // trunks share no state, so one pass over the table serves them all.
  std::vector<std::size_t> joint(groups.empty() ? 0 : groups.back().end, 0);
  std::size_t moves = 0;
  for (auto& [key, route] : routes.routes) {
    bool changed = false;
    for (std::size_t h = 0; h + 1 < route.nodes.size(); ++h) {
      const topo::NodeId from = route.nodes[h];
      const std::size_t g = paths.group_of(paths.index(from),
                                           paths.index(route.nodes[h + 1]));
      if (g == groups.size() || !trunk[g]) {
        continue;
      }
      std::size_t coldest = groups[g].begin;
      for (std::size_t c = groups[g].begin + 1; c < groups[g].end; ++c) {
        if (joint[c] < joint[coldest]) {
          coldest = c;
        }
      }
      ++joint[coldest];
      const topo::WireId pick = paths.cables(groups[g])[coldest - groups[g].begin];
      if (route.wires[h] != pick) {
        const bool was_a_to_b = topo.wire(route.wires[h]).a.node == from;
        --load[channel_slot(route.wires[h], was_a_to_b)];
        const bool now_a_to_b = topo.wire(pick).a.node == from;
        ++load[channel_slot(pick, now_a_to_b)];
        route.wires[h] = pick;
        changed = true;
        ++moves;
      }
    }
    if (changed) {
      recompute_turns(topo, route);
    }
  }
  return moves;
}

}  // namespace

OptimizerReport optimize_routes(const topo::Topology& topo,
                                RoutingResult& routes) {
  OptimizerReport report;
  const detail::UpDownPaths paths(topo, routes.orientation);
  const std::vector<bool> trunk = trunk_groups(topo, paths);
  std::vector<std::size_t> load = channel_loads(topo, routes);
  report.max_load_before = max_load(load);

  auto entry = routes.routes;
  for (int round = 0; round < kMaxRounds; ++round) {
    const std::size_t path_moves = path_pass(topo, routes, paths, load);
    const std::size_t cable_moves =
        cable_pass(topo, routes, paths, trunk, load);
    ++report.rounds;
    report.path_moves += path_moves;
    report.cable_moves += cable_moves;
    if (path_moves == 0 && cable_moves == 0) {
      break;  // settled
    }
  }
  if (!updown_compliant(routes)) {
    routes.routes = std::move(entry);
    load = channel_loads(topo, routes);
    report.reverted = true;
  }

  report.max_load_after = max_load(load);
  routes.meta.optimized = true;
  // Declare the final parallel-cable assignment (replacing any engine
  // plan): SL403 audits against this instead of re-deriving expectations.
  routes.meta.cable_plan.clear();
  for (std::size_t g = 0; g < trunk.size(); ++g) {
    if (!trunk[g]) {
      continue;
    }
    for (const topo::WireId w : paths.cables(paths.groups()[g])) {
      routes.meta.cable_plan[{w, false}] = load[channel_slot(w, false)];
      routes.meta.cable_plan[{w, true}] = load[channel_slot(w, true)];
    }
  }
  return report;
}

}  // namespace sanmap::routing
