#include "analysis/certificates.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <set>
#include <sstream>

#include "common/check.hpp"
#include "routing/updown.hpp"

namespace sanmap::analysis {

namespace {

/// The (label, id) lexicographic order all certificate checks share. This is
/// the only ordering fact a checker needs — it never consults an
/// UpDownOrientation, so a certificate stays checkable after the routing
/// result that produced it has been moved or serialized.
bool lex_less(const std::vector<int>& labels, topo::NodeId a, topo::NodeId b) {
  if (labels[a] != labels[b]) {
    return labels[a] < labels[b];
  }
  return a < b;
}

/// Whether traversing `wire` out of `from` moves toward the root under
/// `labels`. Self-loops never move up (mirrors UpDownOrientation::goes_up).
bool hop_goes_up(const topo::Topology& topo, const std::vector<int>& labels,
                 topo::WireId wire, topo::NodeId from) {
  const topo::Wire& w = topo.wire(wire);
  const topo::NodeId to =
      (w.a.node == from && w.b.node == from) ? from : w.opposite(from).node;
  if (to == from) {
    return false;
  }
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

/// The deduplicated dependency edge list (by dense channel id) that both the
/// certificate builder and the checker derive from the same path inputs.
std::vector<std::set<std::size_t>> dependency_edges(
    const std::vector<std::vector<routing::Channel>>& paths,
    std::size_t num_channels) {
  std::vector<std::set<std::size_t>> deps(num_channels);
  for (const auto& path : paths) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      deps[channel_id(path[i])].insert(channel_id(path[i + 1]));
    }
  }
  return deps;
}

/// Classifies one route against `labels`: leading up moves, then the down
/// suffix; the first up move after a down move is the offense. The builder
/// and the checker share this classifier.
RouteLegality classify_route(const topo::Topology& topo,
                             const std::vector<int>& labels, topo::NodeId src,
                             topo::NodeId dst,
                             const routing::HostRoute& route) {
  RouteLegality entry;
  entry.src = src;
  entry.dst = dst;
  bool went_down = false;
  for (std::size_t i = 0; i < route.wires.size(); ++i) {
    const bool up = hop_goes_up(topo, labels, route.wires[i], route.nodes[i]);
    if (up && !went_down) {
      entry.apex_hop = static_cast<int>(i) + 1;
    }
    if (!up) {
      went_down = true;
    }
    if (up && went_down && entry.legal) {
      entry.legal = false;
      entry.offending_hop = static_cast<int>(i);
    }
  }
  return entry;
}

}  // namespace

LegalityCertificate build_legality_certificate(
    const topo::Topology& topo, const routing::RoutingResult& routes) {
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
  // check_legality re-validates purely from the recorded labels. Read via
  // raw_labels(): the orientation's topology pointer dangles once a
  // RoutingResult has moved across snapshots, but the label array is owned.
  const std::vector<int>& order = routes.orientation.raw_labels();
  SANMAP_CHECK_MSG(order.size() >= topo.node_capacity(),
                   "legality certificate: the table's orientation does not "
                   "cover this map");
  cert.labels.assign(topo.node_capacity(), 0);
  for (const topo::NodeId n : topo.nodes()) {
    cert.labels[n] = order[n];
  }
  cert.routes.reserve(routes.routes.size());
  for (const auto& [key, route] : routes.routes) {
    cert.routes.push_back(
        classify_route(topo, cert.labels, key.first, key.second, route));
    cert.all_legal = cert.all_legal && cert.routes.back().legal;
  }
  return cert;
}

bool check_legality(const topo::Topology& topo,
                    const routing::RoutingResult& routes,
                    const LegalityCertificate& cert,
                    std::vector<std::string>* why) {
  bool ok = true;
  if (cert.labels.size() < topo.node_capacity()) {
    explain(why, "certificate labels cover fewer nodes than the map");
    return false;
  }
  if (cert.routes.size() != routes.routes.size()) {
    explain(why, "certificate covers " + std::to_string(cert.routes.size()) +
                     " routes but the table holds " +
                     std::to_string(routes.routes.size()));
    ok = false;
  }
  bool claims_all_legal = true;
  for (const RouteLegality& entry : cert.routes) {
    claims_all_legal = claims_all_legal && entry.legal;
    const auto it = routes.routes.find({entry.src, entry.dst});
    if (it == routes.routes.end()) {
      explain(why, "certificate names a route absent from the table");
      ok = false;
      continue;
    }
    const RouteLegality derived =
        classify_route(topo, cert.labels, entry.src, entry.dst, it->second);
    if (derived.legal != entry.legal ||
        derived.offending_hop != entry.offending_hop ||
        (entry.legal && derived.apex_hop != entry.apex_hop)) {
      std::ostringstream oss;
      oss << "route " << topo.name(entry.src) << "->" << topo.name(entry.dst)
          << ": certificate says "
          << (entry.legal ? "legal, apex " + std::to_string(entry.apex_hop)
                          : "offense at hop " +
                                std::to_string(entry.offending_hop))
          << " but the labels derive "
          << (derived.legal
                  ? "legal, apex " + std::to_string(derived.apex_hop)
                  : "offense at hop " +
                        std::to_string(derived.offending_hop));
      explain(why, oss.str());
      ok = false;
    }
  }
  if (claims_all_legal != cert.all_legal) {
    explain(why, "all_legal flag disagrees with the per-route entries");
    ok = false;
  }
  return ok;
}

DeadlockCertificate build_deadlock_certificate(
    const topo::Topology& topo,
    const std::vector<std::vector<routing::Channel>>& paths) {
  const std::size_t num_channels = topo.wire_capacity() * 2;
  const auto deps = dependency_edges(paths, num_channels);

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

bool check_deadlock(const std::vector<std::vector<routing::Channel>>& paths,
                    const DeadlockCertificate& cert,
                    std::vector<std::string>* why) {
  // Re-derive the dependency edges; the checker trusts only the paths.
  std::set<std::pair<std::size_t, std::size_t>> edges;
  std::size_t max_id = 0;
  for (const auto& path : paths) {
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
      const std::size_t from = channel_id(path[i]);
      const std::size_t to = channel_id(path[i + 1]);
      edges.insert({from, to});
      max_id = std::max({max_id, from, to});
    }
  }
  if (cert.dependencies != edges.size()) {
    explain(why, "certificate counts " + std::to_string(cert.dependencies) +
                     " dependencies, paths derive " +
                     std::to_string(edges.size()));
    return false;
  }

  if (cert.deadlock_free) {
    std::vector<std::size_t> position(max_id + 1,
                                      std::numeric_limits<std::size_t>::max());
    for (std::size_t i = 0; i < cert.topological_order.size(); ++i) {
      const std::size_t id = channel_id(cert.topological_order[i]);
      if (id <= max_id && position[id] !=
                              std::numeric_limits<std::size_t>::max()) {
        explain(why, "channel repeats in the topological order");
        return false;
      }
      if (id <= max_id) {
        position[id] = i;
      }
    }
    for (const auto& [from, to] : edges) {
      const std::size_t pf = position[from];
      const std::size_t pt = position[to];
      if (pf == std::numeric_limits<std::size_t>::max() ||
          pt == std::numeric_limits<std::size_t>::max()) {
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
    return true;
  }

  if (cert.cycle.empty()) {
    explain(why, "cyclic verdict carries no counterexample");
    return false;
  }
  for (std::size_t i = 0; i < cert.cycle.size(); ++i) {
    const std::size_t from = channel_id(cert.cycle[i]);
    const std::size_t to =
        channel_id(cert.cycle[(i + 1) % cert.cycle.size()]);
    if (edges.find({from, to}) == edges.end()) {
      explain(why, "counterexample edge " +
                       to_string(channel_from_id(from)) + " -> " +
                       to_string(channel_from_id(to)) +
                       " is not a real dependency");
      return false;
    }
  }
  return true;
}

std::string to_string(const routing::Channel& channel) {
  std::ostringstream oss;
  oss << "wire " << channel.wire << (channel.a_to_b ? " a->b" : " b->a");
  return oss.str();
}

// Hand-assembled detours below rebuild their turn words with
// routing::recompute_turns so the only diagnosable defect is the turn
// direction itself (SL105 stays quiet).

std::string inject_down_up_turn(const topo::Topology& topo,
                                routing::RoutingResult& routes) {
  // Sabotage must be relative to the table's own order, or a "down-up"
  // detour picked via fresh BFS labels could be legal under a DFS table.
  // raw_labels(): see build_legality_certificate.
  const std::vector<int>& order = routes.orientation.raw_labels();
  SANMAP_CHECK_MSG(order.size() >= topo.node_capacity(),
                   "sabotage: the table's orientation does not cover this map");
  std::vector<int> labels(topo.node_capacity(), 0);
  for (const topo::NodeId n : topo.nodes()) {
    labels[n] = order[n];
  }
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
    const topo::WireId wh = *topo.wire_at(h, host_ends[0].port);
    const topo::WireId wh2 = *topo.wire_at(h2, host_ends[1].port);

    routing::HostRoute detour;
    detour.nodes = {h, s, t, s, h2};
    detour.wires = {wh, over, over, wh2};
    recompute_turns(topo, detour);
    routes.routes[{h, h2}] = std::move(detour);
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
        const topo::WireId wh = *topo.wire_at(h, host_ends[0].port);
        const topo::WireId wh2 = *topo.wire_at(h2, host_ends[1].port);
        routing::HostRoute detour;
        detour.nodes = {h, s, c, sib, c, s, h2};
        detour.wires = {wh, wsc, wcs, wcs, wsc, wh2};
        recompute_turns(topo, detour);
        routes.routes[{h, h2}] = std::move(detour);
        std::ostringstream oss;
        oss << "route " << topo.name(h) << "->" << topo.name(h2)
            << " hop 3 (" << topo.name(sib) << " -> " << topo.name(c) << ")";
        return oss.str();
      }
    }
  }
  // Last resort for one-host-per-switch fabrics (meshes, hypercubes): two
  // hosts on adjacent switches s < t, bouncing across the shared wire.
  // h -> s (up), s -> t (down), t -> s (the illegal up, hop 2), s -> t,
  // t -> h2.
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
    const topo::WireId wh2 = *topo.wire_at(h2_end.node, h2_end.port);
    routing::HostRoute detour;
    detour.nodes = {h_end.node, s, t, s, t, h2_end.node};
    detour.wires = {wh, w, w, w, wh2};
    recompute_turns(topo, detour);
    routes.routes[{h_end.node, h2_end.node}] = std::move(detour);
    std::ostringstream oss;
    oss << "route " << topo.name(h_end.node) << "->" << topo.name(h2_end.node)
        << " hop 2 (" << topo.name(t) << " -> " << topo.name(s) << ")";
    return oss.str();
  }
  return "";
}

}  // namespace sanmap::analysis
