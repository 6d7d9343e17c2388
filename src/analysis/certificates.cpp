#include "analysis/certificates.hpp"

#include <algorithm>
#include <deque>
#include <iterator>
#include <limits>
#include <sstream>
#include <utility>

#include "analysis/table_check.hpp"
#include "common/check.hpp"
#include "common/thread_pool.hpp"
#include "routing/updown.hpp"

namespace sanmap::analysis {

namespace {

/// The (label, id) lexicographic order the builders and the sabotage helper
/// share. It never consults an UpDownOrientation, so a certificate stays
/// checkable after the routing result that produced it has been moved or
/// serialized.
bool lex_less(const std::vector<int>& labels, topo::NodeId a, topo::NodeId b) {
  return labels[a] < labels[b] || (labels[a] == labels[b] && a < b);
}

/// Whether traversing `wire` out of `from` moves toward the root under
/// `labels`. Self-loops never move up (mirrors UpDownOrientation::goes_up):
/// their far end is `from` itself, never below it.
bool hop_goes_up(const topo::Topology& topo, const std::vector<int>& labels,
                 topo::WireId wire, topo::NodeId from) {
  const topo::Wire& w = topo.wire(wire);
  const topo::NodeId to = w.a.node == from ? w.b.node : w.a.node;
  return lex_less(labels, to, from);
}

void explain(std::vector<std::string>* why, const std::string& line) {
  if (why != nullptr) {
    why->push_back(line);
  }
}

std::size_t channel_id(const routing::Channel& c) {
  return static_cast<std::size_t>(c.wire) * 2 +
         static_cast<std::size_t>(c.a_to_b);
}

routing::Channel channel_from_id(std::size_t id) {
  return routing::Channel{static_cast<topo::WireId>(id / 2), (id % 2) != 0};
}

}  // namespace

std::vector<int> legality_labels(const topo::Topology& topo,
                                 const routing::RoutingResult& routes) {
  const std::vector<int>& order = routes.orientation.raw_labels();
  SANMAP_CHECK_MSG(order.size() >= topo.node_capacity(),
                   "legality certificate: the table's orientation does not "
                   "cover this map");
  std::vector<int> labels(topo.node_capacity(), 0);
  for (const topo::NodeId n : topo.nodes()) {
    labels[n] = order[n];
  }
  return labels;
}

LegalityCertificate build_legality_certificate(
    const topo::Topology& topo, const routing::RoutingResult& routes) {
  common::CallPool pool;
  return build_legality_certificate(topo, routes, pool);
}

LegalityCertificate build_legality_certificate(
    const topo::Topology& topo, const routing::RoutingResult& routes,
    common::CallPool& pool) {
  LegalityCertificate cert;
  cert.root = routes.orientation.root();
  SANMAP_CHECK_MSG(
      cert.root < topo.node_capacity() && topo.node_alive(cert.root) &&
          topo.is_switch(cert.root),
      "legality certificate: root " << cert.root
                                    << " is not a live switch of the map");
  cert.root_name = topo.name(cert.root);
  // The labels come from the table's own orientation, not a fresh BFS:
  // legality is relative to whatever total order the engine routed against
  // (BFS for updown, DFS preorder for the dfs engine — byte-identical to
  // the old recomputation for updown tables under default options), and
  // the checker re-validates purely from the recorded labels.
  cert.labels = legality_labels(topo, routes);
  // Per destination tree, successors first: the first offense of every
  // suffix walk from each state, both for a walk that has not gone down yet
  // and for one that has (the route's first hop decides which applies).
  // Trees are read in blocks of destinations, one block per pool task; each
  // block lists its own illegal routes, and the lists are put in key order.
  const routing::RouteTable& table = routes.routes;
  const auto n = static_cast<std::uint32_t>(table.hosts().size());
  const auto shifted = [](int offense) {
    return offense < 0 ? -1 : offense + 1;
  };
  std::vector<std::uint8_t> first_up(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) {
    first_up[i] = hop_goes_up(topo, cert.labels, table.host_wire(i),
                              table.hosts()[i]);
  }
  constexpr std::uint32_t kBlock = routing::RouteTable::kBlock;
  std::vector<std::vector<IllegalRoute>> blocks((n + kBlock - 1) / kBlock);
  pool.run(blocks.size(), [&](std::size_t b) {
    const auto begin = static_cast<std::uint32_t>(b) * kBlock;
    const std::uint32_t end = std::min(n, begin + kBlock);
    std::vector<int> offense_up(table.num_states(), -1);
    std::vector<int> offense_down(table.num_states(), -1);
    routing::RouteTable::Tree tree;
    for (std::uint32_t dst = begin; dst < end; ++dst) {
      table.tree(dst, tree);
      for (auto it = tree.order.rbegin(); it != tree.order.rend(); ++it) {
        const std::uint32_t x = *it;
        const std::uint32_t s = tree.succ[x];
        const bool up = hop_goes_up(topo, cert.labels, table.next(dst, x),
                                    table.state_switch(x));
        const bool last = s == routing::RouteTable::kNone;
        if (up) {
          offense_up[x] = last ? -1 : shifted(offense_up[s]);
          offense_down[x] = 0;
        } else {
          offense_up[x] = last ? -1 : shifted(offense_down[s]);
          offense_down[x] = offense_up[x];
        }
      }
      for (std::uint32_t i = 0; i < n; ++i) {
        if (tree.routed[i] == 0) {
          continue;
        }
        const std::uint32_t x = table.start(i);
        const int hop = shifted(first_up[i] != 0 ? offense_up[x]
                                                 : offense_down[x]);
        if (hop >= 0) {
          blocks[b].push_back({table.hosts()[i], table.hosts()[dst], hop});
        }
      }
    }
  });
  for (const std::vector<IllegalRoute>& block : blocks) {
    cert.illegal.insert(cert.illegal.end(), block.begin(), block.end());
  }
  std::sort(cert.illegal.begin(), cert.illegal.end());
  return cert;
}

namespace {

/// A node's name for messages about evidence that may name anything.
std::string node_name(const topo::Topology& topo, topo::NodeId n) {
  return topo.node_alive(n) ? topo.name(n) : "node " + std::to_string(n);
}

std::string route_name(const topo::Topology& topo, const IllegalRoute& r) {
  return "route " + node_name(topo, r.src) + "->" + node_name(topo, r.dst);
}

}  // namespace

bool check_illegal_routes(const topo::Topology& topo,
                          const std::vector<int>& labels,
                          const std::vector<IllegalRoute>& derived,
                          const LegalityCertificate& cert,
                          std::vector<std::string>* why) {
  if (cert.labels != labels) {
    explain(why, "certificate labels differ from the labels the routes "
                 "were classified under");
    return false;
  }
  const auto key = [](const IllegalRoute& r) {
    return std::pair{r.src, r.dst};
  };
  for (std::size_t k = 1; k < cert.illegal.size(); ++k) {
    if (key(cert.illegal[k - 1]) >= key(cert.illegal[k])) {
      explain(why, "certificate's illegal routes are not in key order");
      return false;
    }
  }
  // Both lists are in key order: walk them together.
  bool ok = true;
  std::size_t d = 0;
  std::size_t c = 0;
  while (d < derived.size() || c < cert.illegal.size()) {
    if (c == cert.illegal.size() ||
        (d < derived.size() && key(derived[d]) < key(cert.illegal[c]))) {
      explain(why, route_name(topo, derived[d]) +
                       ": the labels derive an offense at hop " +
                       std::to_string(derived[d].offending_hop) +
                       " but the certificate calls it legal");
      ++d;
      ok = false;
    } else if (d == derived.size() ||
               key(cert.illegal[c]) < key(derived[d])) {
      explain(why, route_name(topo, cert.illegal[c]) +
                       ": the certificate names an offense at hop " +
                       std::to_string(cert.illegal[c].offending_hop) +
                       " but the labels derive none");
      ++c;
      ok = false;
    } else {
      if (derived[d].offending_hop != cert.illegal[c].offending_hop) {
        explain(why, route_name(topo, derived[d]) +
                         ": the certificate names an offense at hop " +
                         std::to_string(cert.illegal[c].offending_hop) +
                         " but the labels derive hop " +
                         std::to_string(derived[d].offending_hop));
        ok = false;
      }
      ++d;
      ++c;
    }
  }
  return ok;
}

bool check_legality(const topo::Topology& topo,
                    const routing::RoutingResult& routes,
                    const LegalityCertificate& cert,
                    std::vector<std::string>* why) {
  if (cert.labels.size() < topo.node_capacity()) {
    explain(why, "certificate labels cover fewer nodes than the map");
    return false;
  }
  common::CallPool pool;
  return TableCheck(topo, routes.routes, cert.labels, pool).check(cert, why);
}

namespace {

/// The certificate builder's dependency graph: per-channel successor lists
/// by dense channel id, deduplicated and ascending, from either dependency
/// stream of routing::for_each_dependency.
template <typename... Input>
std::vector<std::vector<std::size_t>> dependency_edges(
    std::size_t num_channels, const Input&... input) {
  std::vector<std::vector<std::size_t>> deps(num_channels);
  routing::for_each_dependency(
      input..., [&](const routing::Channel& held,
                    const routing::Channel& requested) {
        auto& list = deps[channel_id(held)];
        const std::size_t to = channel_id(requested);
        if (std::find(list.begin(), list.end(), to) == list.end()) {
          list.push_back(to);
        }
      });
  for (auto& list : deps) {
    std::sort(list.begin(), list.end());
  }
  return deps;
}

/// Kahn elimination over the builder's own dependency graph.
DeadlockCertificate deadlock_certificate(
    const std::vector<std::vector<std::size_t>>& deps) {
  const std::size_t num_channels = deps.size();
  DeadlockCertificate cert;
  cert.channels = num_channels;
  std::vector<std::size_t> in_degree(num_channels, 0);
  std::vector<bool> participates(num_channels, false);
  for (std::size_t from = 0; from < num_channels; ++from) {
    for (const std::size_t to : deps[from]) {
      ++in_degree[to];
      ++cert.dependencies;
      participates[from] = true;
      participates[to] = true;
    }
  }

  // Kahn elimination in ascending-id order (deterministic certificates).
  std::deque<std::size_t> ready;
  for (std::size_t c = 0; c < num_channels; ++c) {
    if (participates[c] && in_degree[c] == 0) {
      ready.push_back(c);
    }
  }
  std::vector<bool> eliminated(num_channels, false);
  std::size_t remaining = 0;
  for (std::size_t c = 0; c < num_channels; ++c) {
    remaining += participates[c] ? 1u : 0u;
  }
  while (!ready.empty()) {
    const std::size_t c = ready.front();
    ready.pop_front();
    eliminated[c] = true;
    --remaining;
    cert.topological_order.push_back(channel_from_id(c));
    for (const std::size_t to : deps[c]) {
      if (--in_degree[to] == 0) {
        ready.push_back(to);
      }
    }
  }
  if (remaining == 0) {
    cert.deadlock_free = true;
    return cert;
  }

  // A cycle survives elimination. The residual set also holds "tails" —
  // channels downstream of a cycle with no residual successor of their own
  // (Kahn never freed them, but they cannot sit on a cycle). Peel them by
  // reverse-Kahn on residual out-degree so the walk below always has a
  // successor to follow.
  cert.deadlock_free = false;
  cert.topological_order.clear();
  {
    std::vector<std::size_t> out_degree(num_channels, 0);
    std::vector<std::vector<std::size_t>> preds(num_channels);
    for (std::size_t from = 0; from < num_channels; ++from) {
      if (eliminated[from] || !participates[from]) {
        continue;
      }
      for (const std::size_t to : deps[from]) {
        if (!eliminated[to]) {
          ++out_degree[from];
          preds[to].push_back(from);
        }
      }
    }
    std::deque<std::size_t> dead_ends;
    for (std::size_t c = 0; c < num_channels; ++c) {
      if (participates[c] && !eliminated[c] && out_degree[c] == 0) {
        dead_ends.push_back(c);
      }
    }
    while (!dead_ends.empty()) {
      const std::size_t c = dead_ends.front();
      dead_ends.pop_front();
      eliminated[c] = true;
      for (const std::size_t from : preds[c]) {
        if (!eliminated[from] && --out_degree[from] == 0) {
          dead_ends.push_back(from);
        }
      }
    }
  }
  std::size_t start = 0;
  while (start < num_channels && (!participates[start] || eliminated[start])) {
    ++start;
  }
  SANMAP_CHECK_MSG(start < num_channels, "cyclic graph peeled to nothing");
  // Walk successors inside the residual set until a channel repeats; the
  // walk from the repeat point is the cycle.
  std::vector<std::size_t> walk;
  std::vector<int> seen_at(num_channels, -1);
  std::size_t at = start;
  while (seen_at[at] == -1) {
    seen_at[at] = static_cast<int>(walk.size());
    walk.push_back(at);
    std::size_t next = num_channels;
    for (const std::size_t to : deps[at]) {
      if (!eliminated[to]) {
        next = to;
        break;
      }
    }
    SANMAP_CHECK_MSG(next < num_channels,
                     "residual channel with no residual successor");
    at = next;
  }
  const auto cycle_start = static_cast<std::size_t>(seen_at[at]);
  for (std::size_t i = cycle_start; i < walk.size(); ++i) {
    cert.cycle.push_back(channel_from_id(walk[i]));
  }
  return cert;
}

}  // namespace

void DependencyGraph::add(std::size_t held, std::size_t requested) {
  max_id_ = std::max({max_id_, held, requested});
  if (held >= next_.size()) {
    next_.resize(held + 1);
  }
  auto& list = next_[held];
  const auto at = std::lower_bound(list.begin(), list.end(), requested);
  if (at == list.end() || *at != requested) {
    list.insert(at, requested);
    ++count_;
  }
}

bool DependencyGraph::check(const DeadlockCertificate& cert,
                            std::vector<std::string>* why) const {
  if (cert.dependencies != count_) {
    explain(why, "certificate counts " + std::to_string(cert.dependencies) +
                     " dependencies, paths derive " + std::to_string(count_));
    return false;
  }

  if (cert.deadlock_free) {
    constexpr std::size_t kAbsent = std::numeric_limits<std::size_t>::max();
    std::vector<std::size_t> position(max_id_ + 1, kAbsent);
    for (std::size_t i = 0; i < cert.topological_order.size(); ++i) {
      const std::size_t id = channel_id(cert.topological_order[i]);
      if (id <= max_id_ && position[id] != kAbsent) {
        explain(why, "channel repeats in the topological order");
        return false;
      }
      if (id <= max_id_) {
        position[id] = i;
      }
    }
    for (std::size_t from = 0; from < next_.size(); ++from) {
      for (const std::size_t to : next_[from]) {
        const std::size_t pf = position[from];
        const std::size_t pt = position[to];
        if (pf == kAbsent || pt == kAbsent) {
          explain(why, "a dependent channel is missing from the order");
          return false;
        }
        if (pf >= pt) {
          explain(why,
                  "dependency " + to_string(channel_from_id(from)) + " -> " +
                      to_string(channel_from_id(to)) +
                      " points backward in the order");
          return false;
        }
      }
    }
    return true;
  }

  if (cert.cycle.empty()) {
    explain(why, "cyclic verdict carries no counterexample");
    return false;
  }
  for (std::size_t i = 0; i < cert.cycle.size(); ++i) {
    const std::size_t from = channel_id(cert.cycle[i]);
    const std::size_t to = channel_id(cert.cycle[(i + 1) % cert.cycle.size()]);
    if (from >= next_.size() ||
        !std::binary_search(next_[from].begin(), next_[from].end(), to)) {
      explain(why, "counterexample edge " + to_string(channel_from_id(from)) +
                       " -> " + to_string(channel_from_id(to)) +
                       " is not a real dependency");
      return false;
    }
  }
  return true;
}

DeadlockCertificate build_deadlock_certificate(
    const topo::Topology& topo,
    const std::vector<std::vector<routing::Channel>>& paths) {
  return deadlock_certificate(
      dependency_edges(topo.wire_capacity() * 2, paths));
}

DeadlockCertificate build_deadlock_certificate(
    const topo::Topology& topo, const routing::TableSummary& summary) {
  return deadlock_certificate(
      dependency_edges(topo.wire_capacity() * 2, topo, summary));
}

DeadlockCertificate build_deadlock_certificate(
    const topo::Topology& topo, const routing::RoutingResult& routes) {
  return build_deadlock_certificate(topo, routing::summarize(routes));
}

bool check_deadlock(const std::vector<std::vector<routing::Channel>>& paths,
                    const DeadlockCertificate& cert,
                    std::vector<std::string>* why) {
  DependencyGraph graph;
  routing::for_each_dependency(
      paths, [&](const routing::Channel& held,
                 const routing::Channel& requested) {
        graph.add(channel_id(held), channel_id(requested));
      });
  return graph.check(cert, why);
}

bool check_deadlock(const topo::Topology& topo,
                    const routing::RoutingResult& routes,
                    const DeadlockCertificate& cert,
                    std::vector<std::string>* why) {
  // The labels only decide legality; the dependencies need none.
  common::CallPool pool;
  return TableCheck(topo, routes.routes,
                    std::vector<int>(topo.node_capacity(), 0), pool)
      .check(cert, why);
}

std::string to_string(const routing::Channel& channel) {
  std::ostringstream oss;
  oss << "wire " << channel.wire << (channel.a_to_b ? " a->b" : " b->a");
  return oss.str();
}

namespace {

/// Points the entries toward `dst` along a detour: the walk from `start`
/// takes `wires` in order, each entry set at the state the previous one
/// entered. The detours below visit no state twice, so every walk that
/// meets one still ends at `dst`.
void route_detour(routing::RouteTable& table, std::uint32_t start,
                  topo::NodeId dst, const std::vector<topo::WireId>& wires) {
  const std::uint32_t j = table.host_index(dst);
  std::uint32_t x = start;
  for (const topo::WireId w : wires) {
    table.set_entry(j, x, w);
    x = table.hop(x, w).state;
  }
  table.recount();
}

}  // namespace

std::string inject_down_up_turn(const topo::Topology& topo,
                                routing::RoutingResult& routes) {
  // Sabotage must be relative to the table's own order, or a "down-up"
  // detour picked via fresh BFS labels could be legal under a DFS table.
  const std::vector<int>& order = routes.orientation.raw_labels();
  SANMAP_CHECK_MSG(order.size() >= topo.node_capacity(),
                   "sabotage: the table's orientation does not cover this map");
  std::vector<int> labels(topo.node_capacity(), 0);
  for (const topo::NodeId n : topo.nodes()) {
    labels[n] = order[n];
  }
  routing::RouteTable& table = routes.routes;
  const auto start_of = [&](topo::NodeId host) {
    return table.start(table.host_index(host));
  };
  // The detour is written into the entries toward one destination, so
  // every source whose walk meets the rewritten states takes it too; the
  // description names one route that does.
  for (const topo::NodeId s : topo.switches()) {
    // Two hosts on s (detour endpoints) and a lex-greater neighbor switch t:
    // s -> t is then a down move and the return t -> s the illegal up.
    std::vector<topo::PortRef> host_ends;
    topo::WireId over = topo::kInvalidWire;
    topo::NodeId t = topo::kInvalidNode;
    for (const topo::PortRef& nb : topo.neighbors(s)) {
      if (nb.node == s) {
        continue;
      }
      if (topo.is_host(nb.node)) {
        host_ends.push_back(nb);
      } else if (t == topo::kInvalidNode && lex_less(labels, s, nb.node)) {
        t = nb.node;
        const auto w = topo.wire_at(nb.node, nb.port);
        over = w ? *w : topo::kInvalidWire;
      }
    }
    if (host_ends.size() < 2 || t == topo::kInvalidNode ||
        over == topo::kInvalidWire) {
      continue;
    }
    const topo::NodeId h = host_ends[0].node;
    const topo::NodeId h2 = host_ends[1].node;
    const topo::WireId wh2 = *topo.wire_at(h2, host_ends[1].port);
    // h -> s -> t -> s -> h2.
    route_detour(table, start_of(h), h2, {over, over, wh2});
    std::ostringstream oss;
    oss << "route " << topo.name(h) << "->" << topo.name(h2)
        << " hop 2 (" << topo.name(t) << " -> " << topo.name(s) << ")";
    return oss.str();
  }
  // Fallback for fabrics where every host-bearing switch is a leaf (all its
  // switch neighbors rank lower, e.g. the paper's Figure 4): bounce through
  // a lower-ranked core switch c into a sibling switch s' and back. The
  // walk h -> s -> c -> s' -> c -> s -> h2 goes up, up, down, then the
  // illegal up at hop 3 (s' -> c).
  for (const topo::NodeId s : topo.switches()) {
    std::vector<topo::PortRef> host_ends;
    for (const topo::PortRef& nb : topo.neighbors(s)) {
      if (topo.is_host(nb.node)) {
        host_ends.push_back(nb);
      }
    }
    if (host_ends.size() < 2) {
      continue;
    }
    for (const topo::PortRef& nb : topo.neighbors(s)) {
      const topo::NodeId c = nb.node;
      if (c == s || !topo.is_switch(c) || !lex_less(labels, c, s)) {
        continue;
      }
      const topo::WireId wsc = *topo.wire_at(c, nb.port);
      for (const topo::PortRef& nb2 : topo.neighbors(c)) {
        const topo::NodeId sib = nb2.node;
        if (sib == c || sib == s || !topo.is_switch(sib) ||
            !lex_less(labels, c, sib)) {
          continue;
        }
        const topo::WireId wcs = *topo.wire_at(sib, nb2.port);
        const topo::NodeId h = host_ends[0].node;
        const topo::NodeId h2 = host_ends[1].node;
        const topo::WireId wh2 = *topo.wire_at(h2, host_ends[1].port);
        route_detour(table, start_of(h), h2, {wsc, wcs, wcs, wsc, wh2});
        std::ostringstream oss;
        oss << "route " << topo.name(h) << "->" << topo.name(h2)
            << " hop 3 (" << topo.name(sib) << " -> " << topo.name(c) << ")";
        return oss.str();
      }
    }
  }
  // Last resort for one-host-per-switch fabrics (meshes, hypercubes): a
  // host h on switch s and h2 on an adjacent switch t ranked above it,
  // bouncing across the shared wire. h2 -> t (up), t -> s (up), s -> t
  // (down), t -> s (the illegal up, hop 3), s -> h.
  for (const topo::WireId w : topo.wires()) {
    const topo::Wire& wire = topo.wire(w);
    if (!topo.is_switch(wire.a.node) || !topo.is_switch(wire.b.node) ||
        wire.a.node == wire.b.node) {
      continue;
    }
    const bool a_low = lex_less(labels, wire.a.node, wire.b.node);
    const topo::NodeId s = a_low ? wire.a.node : wire.b.node;
    const topo::NodeId t = a_low ? wire.b.node : wire.a.node;
    topo::PortRef h_end{topo::kInvalidNode, 0};
    topo::PortRef h2_end{topo::kInvalidNode, 0};
    for (const topo::PortRef& nb : topo.neighbors(s)) {
      if (topo.is_host(nb.node)) {
        h_end = nb;
        break;
      }
    }
    for (const topo::PortRef& nb : topo.neighbors(t)) {
      if (topo.is_host(nb.node)) {
        h2_end = nb;
        break;
      }
    }
    if (h_end.node == topo::kInvalidNode || h2_end.node == topo::kInvalidNode) {
      continue;
    }
    const topo::WireId wh = *topo.wire_at(h_end.node, h_end.port);
    route_detour(table, start_of(h2_end.node), h_end.node, {w, w, w, wh});
    std::ostringstream oss;
    oss << "route " << topo.name(h2_end.node) << "->" << topo.name(h_end.node)
        << " hop 3 (" << topo.name(t) << " -> " << topo.name(s) << ")";
    return oss.str();
  }
  return "";
}

}  // namespace sanmap::analysis
