#include "routing/routes.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "routing/congestion.hpp"
#include "routing/shortest_trees.hpp"

namespace sanmap::routing {

RouteTable::RouteTable(const topo::Topology& topo,
                       const UpDownOrientation& orientation)
    : hosts_(topo.hosts()),
      switches_(topo.switches()),
      host_index_(topo.node_capacity(), kNone),
      switch_index_(topo.node_capacity(), kNone),
      ports_(topo::kSwitchPorts * topo.num_switches()),
      channels_(2 * topo.wire_capacity()) {
  for (std::uint32_t i = 0; i < hosts_.size(); ++i) {
    host_index_[hosts_[i]] = i;
  }
  for (std::uint32_t s = 0; s < switches_.size(); ++s) {
    switch_index_[switches_[s]] = s;
  }
  // The channel out of one wire end, oriented. Self-loop cables stay out:
  // no valid route uses them.
  const auto end_of = [&](topo::WireId w, const topo::PortRef& from) {
    const topo::Wire& wire = topo.wire(w);
    const bool a_to_b = wire.a == from;
    const topo::PortRef& to = a_to_b ? wire.b : wire.a;
    return PortEnd{w,
                   to.node,
                   switch_index_[to.node],
                   to.port,
                   static_cast<std::uint32_t>(channel_slot(w, a_to_b)),
                   orientation.goes_up(topo, w, from.node)};
  };
  // Each switch's ports, then its switch-to-switch links by ascending wire
  // (the candidate order every seeded and load-aware choice sees).
  link_begin_.assign(1, 0);
  for (std::uint32_t s = 0; s < switches_.size(); ++s) {
    for (topo::Port p = 0; p < topo::kSwitchPorts; ++p) {
      const auto w = topo.wire_at(switches_[s], p);
      if (!w || topo.wire(*w).a.node == topo.wire(*w).b.node) {
        continue;
      }
      const PortEnd end = end_of(*w, {switches_[s], p});
      ports_[port_slot(s, static_cast<std::uint8_t>(p))] = end;
      if (end.to_switch != kNone) {
        links_.push_back(
            {*w, end.to_switch, end.up, static_cast<std::uint8_t>(p)});
      }
    }
    std::sort(links_.begin() + link_begin_.back(), links_.end(),
              [](const Link& x, const Link& y) { return x.wire < y.wire; });
    link_begin_.push_back(static_cast<std::uint32_t>(links_.size()));
  }

  first_hop_.resize(hosts_.size());
  for (std::uint32_t i = 0; i < hosts_.size(); ++i) {
    Hop& hop = first_hop_[i];
    hop.from = hosts_[i];
    const auto w = topo.wire_at(hosts_[i], 0);
    if (!w) {
      continue;
    }
    hop.wire = *w;
    const PortEnd end = end_of(*w, {hosts_[i], 0});
    hop.channel = end.channel;
    hop.to = end.to;
    hop.up = end.up;
    hop.in_port = end.in_port;
    if (end.to_switch != kNone) {
      hop.state = next_state(end.to_switch, end.up, Phase::kUp);
    }
  }
  next_.assign(hosts_.size() * num_states(), kNoPort);
}

std::uint8_t RouteTable::port_of(std::uint32_t s, topo::WireId wire) const {
  if (wire == topo::kInvalidWire) {
    return kNoPort;
  }
  for (topo::Port p = 0; p < topo::kSwitchPorts; ++p) {
    const auto port = static_cast<std::uint8_t>(p);
    if (ports_[port_slot(s, port)].wire == wire) {
      return port;
    }
  }
  return kNoPort;
}

RouteTable::Hop RouteTable::port_hop(std::uint32_t state,
                                     std::uint8_t port) const {
  const PortEnd& end = ports_[port_slot(state / 2, port)];
  Hop hop;
  hop.wire = end.wire;
  hop.channel = end.channel;
  hop.from = state_switch(state);
  hop.to = end.to;
  hop.up = end.up;
  hop.out_port = port;
  hop.in_port = end.in_port;
  if (end.to_switch != kNone) {
    hop.state = next_state(end.to_switch, end.up, state_phase(state));
  }
  return hop;
}

RouteTable::Hop RouteTable::hop(std::uint32_t state,
                                topo::WireId wire) const {
  const std::uint8_t port = port_of(state / 2, wire);
  SANMAP_CHECK_MSG(port != kNoPort, "wire " << wire
                                            << " does not leave switch "
                                            << state_switch(state));
  return port_hop(state, port);
}

bool RouteTable::walk(std::uint32_t src, std::uint32_t dst,
                      HostRoute& out) const {
  out.nodes.clear();
  out.wires.clear();
  out.turns.clear();
  const topo::NodeId target = hosts_[dst];
  out.nodes.push_back(hosts_[src]);
  const Hop& first = first_hop_[src];
  if (first.to == topo::kInvalidNode) {
    return false;
  }
  out.wires.push_back(first.wire);
  out.nodes.push_back(first.to);
  // The hot loop of every reader: port_hop, inlined by hand.
  const std::uint8_t* entry = next_.data() + dst * num_states();
  topo::NodeId at = first.to;
  topo::Port in_port = first.in_port;
  std::uint32_t state = first.state;
  // A walk that visits more states than there are has looped.
  for (std::size_t steps = 0;
       at != target && state != kNone && steps <= num_states(); ++steps) {
    const std::uint8_t port = entry[state];
    if (port == kNoPort) {
      return false;
    }
    const PortEnd& end = ports_[port_slot(state / 2, port)];
    out.wires.push_back(end.wire);
    out.nodes.push_back(end.to);
    out.turns.push_back(port - in_port);
    state = end.to_switch == kNone
                ? kNone
                : next_state(end.to_switch, end.up, state_phase(state));
    at = end.to;
    in_port = end.in_port;
  }
  return true;
}

void RouteTable::resolve(std::uint32_t dst, std::vector<Outcome>& outcome,
                         std::vector<std::uint32_t>& succ,
                         std::vector<std::uint32_t>& post) const {
  outcome.assign(num_states(), Outcome::kUnknown);
  succ.assign(num_states(), kNone);
  post.clear();
  const topo::NodeId target = hosts_[dst];
  std::vector<std::uint32_t> path;
  for (std::uint32_t i = 0; i < hosts_.size(); ++i) {
    if (i == dst || start(i) == kNone) {
      continue;
    }
    // Follow the walk until it meets a resolved state or ends, then give
    // every state on the way that ending. Meeting a state still open on
    // this very walk is a loop.
    path.clear();
    Outcome end = Outcome::kBroken;
    for (std::uint32_t x = start(i);;) {
      if (outcome[x] != Outcome::kUnknown) {
        end = outcome[x] == Outcome::kOpen ? Outcome::kBroken : outcome[x];
        break;
      }
      outcome[x] = Outcome::kOpen;
      path.push_back(x);
      const std::uint8_t port = next_[dst * num_states() + x];
      if (port == kNoPort) {
        end = Outcome::kMissing;
        break;
      }
      const Hop h = port_hop(x, port);
      if (h.to == target) {
        end = Outcome::kReaches;
        break;
      }
      if (h.state == kNone) {
        end = Outcome::kBroken;
        break;
      }
      succ[x] = h.state;
      x = h.state;
    }
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      outcome[*it] = end;
      post.push_back(*it);
    }
  }
}

void RouteTable::tree(std::uint32_t dst, Tree& out) const {
  std::vector<Outcome> outcome;
  std::vector<std::uint32_t> post;
  resolve(dst, outcome, out.succ, post);
  out.dst = dst;
  out.len.assign(num_states(), 0);
  out.weight.assign(num_states(), 0);
  out.routed.assign(hosts_.size(), 0);
  out.order.clear();
  for (const std::uint32_t x : post) {  // successors first
    if (outcome[x] == Outcome::kReaches) {
      out.len[x] = 1 + (out.succ[x] == kNone ? 0 : out.len[out.succ[x]]);
    }
  }
  for (auto it = post.rbegin(); it != post.rend(); ++it) {
    if (outcome[*it] == Outcome::kReaches) {
      out.order.push_back(*it);
    }
  }
  for (std::uint32_t i = 0; i < hosts_.size(); ++i) {
    if (i != dst && start(i) != kNone &&
        outcome[start(i)] == Outcome::kReaches) {
      out.routed[i] = 1;
      ++out.weight[start(i)];
    }
  }
  for (const std::uint32_t x : out.order) {
    if (out.succ[x] != kNone) {
      out.weight[out.succ[x]] += out.weight[x];
    }
  }
}

void RouteTable::recount(common::CallPool& pool) {
  const auto n = static_cast<std::uint32_t>(hosts_.size());
  std::vector<std::size_t> blocks((n + kBlock - 1) / kBlock, 0);
  pool.run(blocks.size(), [&](std::size_t b) {
    std::vector<Outcome> outcome;
    std::vector<std::uint32_t> succ;
    std::vector<std::uint32_t> post;
    std::size_t routed = 0;  // counted here: the blocks share cache lines
    const auto begin = static_cast<std::uint32_t>(b) * kBlock;
    for (std::uint32_t j = begin; j < std::min(n, begin + kBlock); ++j) {
      resolve(j, outcome, succ, post);
      for (std::uint32_t i = 0; i < n; ++i) {
        if (i != j && start(i) != kNone &&
            outcome[start(i)] != Outcome::kMissing) {
          ++routed;
        }
      }
    }
    blocks[b] = routed;
  });
  size_ = 0;
  for (const std::size_t count : blocks) {
    size_ += count;
  }
}

void RouteTable::recount() {
  common::CallPool pool;
  recount(pool);
}

void RouteTable::set_entry(std::uint32_t dst, std::uint32_t state,
                           topo::WireId wire) {
  std::uint8_t port = kNoPort;
  if (wire != topo::kInvalidWire) {
    port = port_of(state / 2, wire);
    SANMAP_CHECK_MSG(port != kNoPort, "wire " << wire
                                              << " does not leave switch "
                                              << state_switch(state));
  }
  next_[dst * num_states() + state] = port;
}

void RouteTable::clear_entries(std::uint32_t dst) {
  std::fill_n(next_.begin() + static_cast<std::ptrdiff_t>(dst * num_states()),
              num_states(), kNoPort);
}

std::size_t RouteTable::bytes() const {
  return hosts_.capacity() * sizeof(topo::NodeId) +
         switches_.capacity() * sizeof(topo::NodeId) +
         host_index_.capacity() * sizeof(std::uint32_t) +
         switch_index_.capacity() * sizeof(std::uint32_t) +
         first_hop_.capacity() * sizeof(Hop) +
         ports_.capacity() * sizeof(PortEnd) +
         link_begin_.capacity() * sizeof(std::uint32_t) +
         links_.capacity() * sizeof(Link) + next_.capacity();
}

HostRoute RoutingResult::route(topo::NodeId src, topo::NodeId dst) const {
  const std::uint32_t i = routes.host_index(src);
  const std::uint32_t j = routes.host_index(dst);
  HostRoute out;
  SANMAP_CHECK_MSG(i != RouteTable::kNone && j != RouteTable::kNone &&
                       i != j && routes.walk(i, j, out) &&
                       out.nodes.back() == dst,
                   "no route from " << src << " to " << dst);
  return out;
}

std::vector<HostRoute> RoutingResult::table_for(topo::NodeId src) const {
  std::vector<HostRoute> out;
  const std::uint32_t i = routes.host_index(src);
  if (i == RouteTable::kNone) {
    return out;
  }
  HostRoute buffer;
  for (std::uint32_t j = 0; j < routes.hosts().size(); ++j) {
    if (j != i && routes.walk(i, j, buffer)) {
      out.push_back(buffer);
    }
  }
  return out;
}

HopSummary TableSummary::hops() const {
  // The sum is an integer, so the mean is one division whatever order the
  // hops were added in.
  return {routed == 0 ? 0.0
                      : static_cast<double>(total_hops) /
                            static_cast<double>(routed),
          static_cast<int>(max_hops)};
}

TableSummary summarize(const RoutingResult& routes, common::CallPool& pool) {
  const RouteTable& table = routes.routes;
  const auto n = static_cast<std::uint32_t>(table.hosts().size());
  constexpr std::uint32_t kBlock = RouteTable::kBlock;
  std::vector<TableSummary> blocks((n + kBlock - 1) / kBlock);
  pool.run(blocks.size(), [&](std::size_t b) {
    // Filled here and moved out at the end: the blocks share cache lines.
    TableSummary out;
    out.next_ports.assign(table.num_channels(), 0);
    const auto turn = [&](std::size_t held, topo::Port port) {
      out.next_ports[held] |= static_cast<std::uint8_t>(1u << port);
    };
    RouteTable::Tree tree;
    const auto begin = static_cast<std::uint32_t>(b) * kBlock;
    for (std::uint32_t dst = begin; dst < std::min(n, begin + kBlock);
         ++dst) {
      table.tree(dst, tree);
      const std::uint8_t* entry =
          table.entries().data() + std::size_t{dst} * table.num_states();
      for (std::uint32_t i = 0; i < n; ++i) {
        if (tree.routed[i] == 0) {
          continue;
        }
        const std::uint32_t x = table.start(i);
        const std::uint32_t hops = 1 + tree.len[x];
        ++out.routed;
        out.total_hops += hops;
        out.max_hops = std::max(out.max_hops, hops);
        turn(table.first_hop(i).channel, entry[x]);
      }
      for (const std::uint32_t x : tree.order) {
        const RouteTable::Hop hop = table.entry_hop(dst, x);
        out.compliant = out.compliant &&
                        !(RouteTable::state_phase(x) == Phase::kDown && hop.up);
        if (tree.succ[x] != RouteTable::kNone) {
          turn(hop.channel, entry[tree.succ[x]]);
        }
      }
    }
    blocks[b] = std::move(out);
  });
  TableSummary summary;
  summary.next_ports.assign(table.num_channels(), 0);
  for (const TableSummary& block : blocks) {
    for (std::size_t c = 0; c < block.next_ports.size(); ++c) {
      summary.next_ports[c] |= block.next_ports[c];
    }
    summary.routed += block.routed;
    summary.total_hops += block.total_hops;
    summary.max_hops = std::max(summary.max_hops, block.max_hops);
    summary.compliant = summary.compliant && block.compliant;
  }
  return summary;
}

TableSummary summarize(const RoutingResult& routes) {
  common::CallPool pool;
  return summarize(routes, pool);
}

RoutingResult compute_updown_routes(const topo::Topology& topo,
                                    const UpDownOptions& options,
                                    std::uint64_t seed) {
  RoutingResult result{UpDownOrientation(topo, options), {}};
  result.routes = RouteTable(topo, result.orientation);
  const RouteTable& table = result.routes;
  common::Rng rng(seed);
  std::vector<std::size_t> load(topo.wire_capacity() * 2, 0);
  std::vector<std::uint32_t> weight;
  detail::for_each_destination(
      topo, result.routes,
      [&](std::uint32_t dst, const detail::PhaseDistances& distances) {
        // §5.5's load-balance freedom: of two seeded picks among the tied
        // next hops the less loaded, then of the parallel cables to that
        // switch the one with the fewest routes in both directions (the
        // pick itself on ties), so every trunk stays within one entry's
        // weight of even.
        detail::grow_tree(
            result.routes, distances, dst, weight,
            [&](std::uint32_t state, std::uint32_t sources,
                const std::vector<std::uint8_t>& tied) {
              RouteTable::Hop pick = table.port_hop(state, rng.pick(tied));
              const RouteTable::Hop other =
                  table.port_hop(state, rng.pick(tied));
              if (load[other.channel] < load[pick.channel]) {
                pick = other;
              }
              const auto joint = [&](const RouteTable::Hop& cable) {
                return load[channel_slot(cable.wire, false)] +
                       load[channel_slot(cable.wire, true)];
              };
              RouteTable::Hop best = pick;
              for (const std::uint8_t port : tied) {
                const RouteTable::Hop cable = table.port_hop(state, port);
                if (cable.to == pick.to && joint(cable) < joint(best)) {
                  best = cable;
                }
              }
              load[best.channel] += sources;
              return static_cast<std::uint8_t>(best.out_port);
            });
      });
  result.routes.recount();
  return result;
}

}  // namespace sanmap::routing
