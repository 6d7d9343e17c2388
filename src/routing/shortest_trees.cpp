#include "routing/shortest_trees.hpp"

#include <map>
#include <utility>

namespace sanmap::routing {

namespace detail {

PhaseDistances::PhaseDistances(const RouteTable& table)
    : table_(&table), dist_(table.num_states(), kFar) {}

void PhaseDistances::toward(std::uint32_t t, bool final_up) {
  std::fill(dist_.begin(), dist_.end(), kFar);
  order_.clear();
  for (const Phase phase : {Phase::kUp, Phase::kDown}) {
    if (phase == Phase::kUp || !final_up) {
      dist_[RouteTable::state_of(t, phase)] = 0;
      order_.push_back(RouteTable::state_of(t, phase));
    }
  }
  // Reverse search: the predecessors of (v, q) are the states one move
  // away that land in it. A move u -> v is up exactly when v -> u is down.
  for (std::size_t k = 0; k < order_.size(); ++k) {
    const std::uint32_t y = order_[k];
    const std::uint32_t v = y / 2;
    for (const RouteTable::Link& link : table_->links(v)) {
      const bool move_up = !link.up;
      for (const Phase phase : {Phase::kUp, Phase::kDown}) {
        const std::uint32_t x = RouteTable::state_of(link.to, phase);
        if (dist_[x] == kFar && !(phase == Phase::kDown && move_up) &&
            RouteTable::next_state(v, move_up, phase) == y) {
          dist_[x] = dist_[y] + 1;
          order_.push_back(x);
        }
      }
    }
  }
}

void PhaseDistances::tied(std::uint32_t state,
                          std::vector<std::uint8_t>& out) const {
  out.clear();
  const Phase phase = RouteTable::state_phase(state);
  for (const RouteTable::Link& link : table_->links(state / 2)) {
    if (phase == Phase::kDown && link.up) {
      continue;  // the down-to-up turn UP*/DOWN* forbids
    }
    const std::uint32_t y = RouteTable::next_state(link.to, link.up, phase);
    if (dist_[y] != kFar && dist_[y] + 1 == dist_[state]) {
      out.push_back(link.port);
    }
  }
}

void grow_coldest_tree(RouteTable& table, const PhaseDistances& distances,
                       std::uint32_t dst, std::vector<std::uint32_t>& weight,
                       std::vector<std::size_t>& load) {
  // The coldest way on from every state, nearest first: the least
  // (hottest channel, total load) over its tied continuations, under the
  // loads before this destination's traffic.
  struct Cost {
    std::size_t hottest = 0;
    std::size_t total = 0;
    bool operator<(const Cost& other) const {
      return hottest != other.hottest ? hottest < other.hottest
                                      : total < other.total;
    }
  };
  std::vector<Cost> onward(table.num_states());
  std::vector<std::uint8_t> tied;
  const auto via = [&](std::uint32_t state, std::uint8_t port) {
    const RouteTable::Hop hop = table.port_hop(state, port);
    const Cost rest = distances.dist(state) > 1 ? onward[hop.state] : Cost{};
    return Cost{std::max(load[hop.channel], rest.hottest),
                load[hop.channel] + rest.total};
  };
  for (const std::uint32_t x : distances.order()) {
    if (distances.dist(x) == 0) {
      continue;
    }
    distances.tied(x, tied);
    onward[x] = via(x, tied.front());
    for (const std::uint8_t port : tied) {
      onward[x] = std::min(onward[x], via(x, port));
    }
  }
  // Then each entry, farthest first, follows the coldest continuation (the
  // first on ties) and adds the sources it routes to its channel.
  grow_tree(table, distances, dst, weight,
            [&](std::uint32_t state, std::uint32_t sources,
                const std::vector<std::uint8_t>& candidates) {
              std::uint8_t pick = candidates.front();
              Cost best = via(state, pick);
              for (const std::uint8_t port : candidates) {
                const Cost cost = via(state, port);
                if (cost < best) {
                  best = cost;
                  pick = port;
                }
              }
              load[table.port_hop(state, pick).channel] += sources;
              return pick;
            });
}

std::vector<std::vector<topo::WireId>> parallel_trunks(
    const topo::Topology& topo) {
  std::map<std::pair<topo::NodeId, topo::NodeId>, std::vector<topo::WireId>>
      by_pair;
  for (const topo::WireId w : topo.wires()) {
    const topo::Wire& wire = topo.wire(w);
    if (wire.a.node != wire.b.node && topo.is_switch(wire.a.node) &&
        topo.is_switch(wire.b.node)) {
      by_pair[std::minmax(wire.a.node, wire.b.node)].push_back(w);
    }
  }
  std::vector<std::vector<topo::WireId>> trunks;
  for (auto& [pair, cables] : by_pair) {
    if (cables.size() >= 2) {
      trunks.push_back(std::move(cables));
    }
  }
  std::sort(trunks.begin(), trunks.end());
  return trunks;
}

}  // namespace detail

}  // namespace sanmap::routing
