#include "routing/optimizer.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "routing/congestion.hpp"
#include "routing/deadlock.hpp"
#include "routing/shortest_trees.hpp"

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

/// The channel counts one candidate move shifts: signed, dense by channel
/// slot, with the touched slots listed so scoring and resetting cost only
/// those. Each channel is touched at most twice (once by the path the
/// sources leave, once by the path they take), since a shortest compliant
/// path never visits a switch twice.
struct Shift {
  std::vector<long long> delta;
  std::vector<std::size_t> touched;

  void add(std::size_t channel, long long sources) {
    if (delta[channel] == 0) {
      touched.push_back(channel);
    }
    delta[channel] += sources;
  }
  /// Whether applying the shift to `load` strictly lowers (hottest touched
  /// channel, sum of squared touched loads): the hottest never rises, and
  /// at an equal hottest the traffic moves toward colder channels.
  [[nodiscard]] bool improves(const std::vector<std::size_t>& load) const {
    long long hottest_before = 0;
    long long hottest_after = 0;
    long long squares = 0;  // after minus before
    for (const std::size_t c : touched) {
      const auto have = static_cast<long long>(load[c]);
      hottest_before = std::max(hottest_before, have);
      hottest_after = std::max(hottest_after, have + delta[c]);
      squares += (2 * have + delta[c]) * delta[c];
    }
    return hottest_after < hottest_before ||
           (hottest_after == hottest_before && squares < 0);
  }
  void apply(std::vector<std::size_t>& load) const {
    for (const std::size_t c : touched) {
      load[c] = static_cast<std::size_t>(static_cast<long long>(load[c]) +
                                         delta[c]);
    }
  }
  void clear() {
    for (const std::size_t c : touched) {
      delta[c] = 0;
    }
    touched.clear();
  }
};

/// Re-points single entries, each destination's tree sources first, at
/// another tied next hop when that lowers (hottest channel, sum of squared
/// loads) over the channels the move touches: the entry's sources leave
/// their path up to where the new one meets it. Where the new path runs
/// through states no source reached, it follows the least loaded tied hop
/// and those entries are written too. A kept move never raises a channel
/// count above the hottest it touched, so the maximum load cannot get
/// worse; hop counts cannot change, since every hop is a tied shortest
/// one. Returns the entries re-pointed.
std::size_t path_pass(const topo::Topology& topo, RouteTable& table,
                      std::vector<std::size_t>& load) {
  std::size_t moves = 0;
  RouteTable::Tree tree;
  std::vector<std::uint8_t> tied;
  std::vector<std::uint8_t> onward;
  Shift shift{std::vector<long long>(load.size(), 0), {}};
  // Entries a candidate path writes through unreached states.
  struct Entry {
    std::uint32_t state;
    std::uint8_t port;
    std::uint32_t next;
  };
  std::vector<Entry> grown;
  detail::for_each_destination(
      topo, table,
      [&](std::uint32_t dst, const detail::PhaseDistances& distances) {
        table.tree(dst, tree);
        for (const std::uint32_t x : tree.order) {
          const auto sources = static_cast<long long>(tree.weight[x]);
          if (sources == 0 || tree.succ[x] == RouteTable::kNone) {
            continue;  // no traffic left, or the forced hop onto the host
          }
          distances.tied(x, tied);
          for (const std::uint8_t port : tied) {
            const RouteTable::Hop to = table.port_hop(x, port);
            if (to.wire == table.next(dst, x)) {
              continue;
            }
            // Both paths descend one distance a hop, so they are walked in
            // step until they meet (at the latest both end on the host).
            shift.add(table.entry_hop(dst, x).channel, -sources);
            shift.add(to.channel, sources);
            grown.clear();
            std::uint32_t was = tree.succ[x];
            std::uint32_t now = to.state;
            while (was != now) {
              shift.add(table.entry_hop(dst, was).channel, -sources);
              was = tree.succ[was];
              if (tree.weight[now] != 0) {
                shift.add(table.entry_hop(dst, now).channel, sources);
                now = tree.succ[now];
                continue;
              }
              RouteTable::Hop next;
              if (distances.dist(now) == 0) {
                next = table.hop(now, table.host_wire(dst));
              } else {
                distances.tied(now, onward);
                next = table.port_hop(now, onward.front());
                for (const std::uint8_t q : onward) {
                  const RouteTable::Hop h = table.port_hop(now, q);
                  if (load[h.channel] < load[next.channel]) {
                    next = h;
                  }
                }
              }
              shift.add(next.channel, sources);
              grown.push_back({now, static_cast<std::uint8_t>(next.out_port),
                               next.state});
              now = next.state;
            }
            if (shift.improves(load)) {
              shift.apply(load);
              for (const Entry& e : grown) {
                table.set_port(dst, e.state, e.port);
                tree.succ[e.state] = e.next;
              }
              for (was = tree.succ[x], now = to.state; was != now;
                   was = tree.succ[was], now = tree.succ[now]) {
                tree.weight[was] -= static_cast<std::uint32_t>(sources);
                tree.weight[now] += static_cast<std::uint32_t>(sources);
              }
              tree.succ[x] = to.state;
              table.set_port(dst, x, port);
              ++moves;
            }
            shift.clear();
          }
        }
      });
  return moves;
}

/// Re-deals the entries crossing every parallel trunk so per-cable totals
/// (both directions jointly, in sources routed) end within the largest
/// entry weight of each other. A trunk whose hottest directed channel the
/// deal would raise keeps its old assignment. Returns the entries moved to
/// another cable.
std::size_t cable_pass(const topo::Topology& topo, RouteTable& table,
                       const std::vector<std::vector<topo::WireId>>& trunks,
                       std::vector<std::size_t>& load) {
  std::vector<std::size_t> trunk_of(topo.wire_capacity(), trunks.size());
  for (std::size_t t = 0; t < trunks.size(); ++t) {
    for (const topo::WireId w : trunks[t]) {
      trunk_of[w] = t;
    }
  }
  const auto hottest = [&](std::size_t t) {
    std::size_t most = 0;
    for (const topo::WireId w : trunks[t]) {
      most = std::max({most, load[channel_slot(w, false)],
                       load[channel_slot(w, true)]});
    }
    return most;
  };
  std::vector<std::size_t> hottest_before(trunks.size());
  for (std::size_t t = 0; t < trunks.size(); ++t) {
    hottest_before[t] = hottest(t);
  }
  // Each trunk deals its entries in a deterministic order — destinations
  // ascending, each tree sources first — to its coldest cable, first on
  // ties; a parallel cable leads to the same state, so no tree changes
  // shape, and the trunks share no channel.
  struct Move {
    std::size_t trunk;
    std::uint32_t dst;
    std::uint32_t state;
    topo::WireId was;
    topo::WireId pick;
    std::uint32_t sources;
  };
  std::vector<Move> moved;
  std::vector<std::size_t> joint(topo.wire_capacity(), 0);
  RouteTable::Tree tree;
  for (std::uint32_t dst = 0; dst < table.hosts().size(); ++dst) {
    table.tree(dst, tree);
    for (const std::uint32_t x : tree.order) {
      const topo::WireId was = table.next(dst, x);
      const std::size_t t = trunk_of[was];
      if (t == trunks.size()) {
        continue;
      }
      topo::WireId pick = trunks[t].front();
      for (const topo::WireId w : trunks[t]) {
        if (joint[w] < joint[pick]) {
          pick = w;
        }
      }
      joint[pick] += tree.weight[x];
      if (pick != was) {
        load[table.hop(x, was).channel] -= tree.weight[x];
        load[table.hop(x, pick).channel] += tree.weight[x];
        table.set_entry(dst, x, pick);
        moved.push_back({t, dst, x, was, pick, tree.weight[x]});
      }
    }
  }
  std::vector<bool> undo(trunks.size());
  for (std::size_t t = 0; t < trunks.size(); ++t) {
    undo[t] = hottest(t) > hottest_before[t];
  }
  std::size_t moves = 0;
  for (const Move& m : moved) {
    if (!undo[m.trunk]) {
      ++moves;
      continue;
    }
    load[table.hop(m.state, m.pick).channel] -= m.sources;
    load[table.hop(m.state, m.was).channel] += m.sources;
    table.set_entry(m.dst, m.state, m.was);
  }
  return moves;
}

}  // namespace

OptimizerReport optimize_routes(const topo::Topology& topo,
                                RoutingResult& routes) {
  OptimizerReport report;
  const auto trunks = detail::parallel_trunks(topo);
  std::vector<std::size_t> load = channel_loads(topo, routes);
  report.max_load_before = max_load(load);

  const RouteTable entry = routes.routes;
  for (int round = 0; round < kMaxRounds; ++round) {
    const std::size_t path_moves = path_pass(topo, routes.routes, load);
    const std::size_t cable_moves =
        cable_pass(topo, routes.routes, trunks, load);
    ++report.rounds;
    report.path_moves += path_moves;
    report.cable_moves += cable_moves;
    if (path_moves == 0 && cable_moves == 0) {
      break;  // settled
    }
  }
  if (!updown_compliant(routes)) {
    routes.routes = entry;
    load = channel_loads(topo, routes);
    report.reverted = true;
  }

  report.max_load_after = max_load(load);
  return report;
}

RoutingResult route(const topo::Topology& map, const RouteChoices& choices,
                    const UpDownOptions& updown, OptimizerReport* report) {
  RoutingResult routes =
      compute_routes(map, choices.engine, updown, choices.route_seed);
  if (choices.optimize) {
    const OptimizerReport optimized = optimize_routes(map, routes);
    if (report != nullptr) {
      *report = optimized;
    }
  }
  return routes;
}

}  // namespace sanmap::routing
