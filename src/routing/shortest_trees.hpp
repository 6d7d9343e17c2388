// The shared emitter of every shortest-route table: reverse breadth-first
// searches over (switch, phase) states and the farthest-first filling of
// one destination's entries, used by compute_updown_routes, the DFS engine
// and the route optimizer's helpers. Private to the routing library.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/check.hpp"
#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::routing {

namespace detail {

/// Shortest compliant distances over a table's (switch, phase) states
/// toward one destination switch, by reverse breadth-first search: the
/// shared preparation of every shortest-route emitter.
class PhaseDistances {
 public:
  static constexpr std::uint32_t kFar =
      std::numeric_limits<std::uint32_t>::max();

  explicit PhaseDistances(const RouteTable& table);

  /// Distances toward switch index `t`. Both of t's states are targets
  /// unless `final_up` (the last hop onto the destination host is an up
  /// move, which only a route still in kUp may make).
  void toward(std::uint32_t t, bool final_up);

  [[nodiscard]] std::uint32_t dist(std::uint32_t state) const {
    return dist_[state];
  }
  /// The reached states by ascending distance.
  [[nodiscard]] const std::vector<std::uint32_t>& order() const {
    return order_;
  }
  /// The ports out of `state` whose far state is one hop nearer, by
  /// ascending wire.
  void tied(std::uint32_t state, std::vector<std::uint8_t>& out) const;

 private:
  const RouteTable* table_;
  std::vector<std::uint32_t> dist_;
  std::vector<std::uint32_t> order_;
};

/// Fills destination host index `dst`'s entries for every state a source
/// reaches, farthest first, choosing each entry's port among its tied
/// next hops with choose(state, weight, ports) -> port, where weight counts
/// the sources the entry routes. `distances` must be toward dst's switch.
/// Clears the destination's other entries.
template <typename Choose>
void grow_tree(RouteTable& table, const PhaseDistances& distances,
               std::uint32_t dst, std::vector<std::uint32_t>& weight,
               Choose&& choose) {
  table.clear_entries(dst);
  weight.assign(table.num_states(), 0);
  const auto hosts = static_cast<std::uint32_t>(table.hosts().size());
  for (std::uint32_t i = 0; i < hosts; ++i) {
    if (i != dst && table.start(i) != RouteTable::kNone) {
      ++weight[table.start(i)];
    }
  }
  std::vector<std::uint8_t> candidates;
  const auto& order = distances.order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::uint32_t x = *it;
    if (weight[x] == 0) {
      continue;
    }
    if (distances.dist(x) == 0) {
      table.set_entry(dst, x, table.host_wire(dst));
      continue;
    }
    distances.tied(x, candidates);
    const std::uint8_t pick = choose(x, weight[x], candidates);
    table.set_port(dst, x, pick);
    weight[table.port_hop(x, pick).state] += weight[x];
  }
}

/// grow_tree with the load-aware choice of the DFS engine: each entry
/// takes its coldest tied channel (the first on ties)
/// and adds the sources it routes to that channel's count in `load`
/// (indexed by channel_slot).
void grow_coldest_tree(RouteTable& table, const PhaseDistances& distances,
                       std::uint32_t dst, std::vector<std::uint32_t>& weight,
                       std::vector<std::size_t>& load);

/// The parallel switch-to-switch trunks of `topo`, which the optimizer's
/// cable pass re-deals: every group of two or more cables joining the same
/// two switches, ascending by wire id, groups ascending by their first
/// wire.
std::vector<std::vector<topo::WireId>> parallel_trunks(
    const topo::Topology& topo);

/// Runs `per_destination(dst, distances)` for every destination host
/// index, grouped by destination switch (switches ascending, hosts
/// ascending within one), so each breadth-first search serves every host on
/// its switch. Checks that every source reaches every destination.
template <typename PerDestination>
void for_each_destination(const topo::Topology& topo, const RouteTable& table,
                          PerDestination&& per_destination) {
  PhaseDistances distances(table);
  // Hosts by the state their first hop enters. The last hop onto a host
  // is its first hop reversed, so it is an up move exactly when that state
  // is kDown.
  std::vector<std::vector<std::uint32_t>> by_start(table.num_states());
  const auto hosts = static_cast<std::uint32_t>(table.hosts().size());
  for (std::uint32_t j = 0; j < hosts; ++j) {
    if (table.start(j) != RouteTable::kNone) {
      by_start[table.start(j)].push_back(j);
    }
  }
  for (std::uint32_t g = 0; g < by_start.size(); ++g) {
    if (by_start[g].empty()) {
      continue;
    }
    distances.toward(g / 2, RouteTable::state_phase(g) == Phase::kDown);
    for (const std::uint32_t j : by_start[g]) {
      for (std::uint32_t i = 0; i < hosts; ++i) {
        SANMAP_CHECK_MSG(i == j || (table.start(i) != RouteTable::kNone &&
                                    distances.dist(table.start(i)) !=
                                        PhaseDistances::kFar),
                         "no UP*/DOWN* route between hosts "
                             << topo.name(table.hosts()[i]) << " and "
                             << topo.name(table.hosts()[j]));
      }
      per_destination(j, static_cast<const PhaseDistances&>(distances));
    }
  }
}

}  // namespace detail

}  // namespace sanmap::routing
