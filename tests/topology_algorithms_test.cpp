// Tests for graph algorithms: BFS, diameter, bridges, the separated set F,
// the core N - F, and Q / search depth (paper Definitions 2-3, Lemma 1).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/topology.hpp"

namespace sanmap::topo {
namespace {

/// Successive-shortest-paths min-cost flow with a full Bellman-Ford sweep
/// per unit of flow: slow but obviously correct, the reference that
/// topo::q_of's two-pass solve must match.
class ReferenceMinCostFlow {
 public:
  explicit ReferenceMinCostFlow(std::size_t num_vertices)
      : head_(num_vertices, -1) {}

  void add_arc(std::size_t from, std::size_t to, int capacity, int cost) {
    arcs_.push_back(Arc{static_cast<int>(to), head_[from], capacity, cost});
    head_[from] = static_cast<int>(arcs_.size()) - 1;
    arcs_.push_back(Arc{static_cast<int>(from), head_[to], 0, -cost});
    head_[to] = static_cast<int>(arcs_.size()) - 1;
  }

  /// Sends up to `amount` units from s to t; returns {flow sent, total cost}.
  std::pair<int, int> run(std::size_t s, std::size_t t, int amount) {
    int flow = 0;
    int cost = 0;
    while (flow < amount) {
      const int kInf = std::numeric_limits<int>::max() / 2;
      std::vector<int> dist(head_.size(), kInf);
      std::vector<int> parent_arc(head_.size(), -1);
      dist[s] = 0;
      bool changed = true;
      while (changed) {
        changed = false;
        for (std::size_t u = 0; u < head_.size(); ++u) {
          if (dist[u] == kInf) {
            continue;
          }
          for (int a = head_[u]; a != -1; a = arc(a).next) {
            const Arc& e = arc(a);
            const auto to = static_cast<std::size_t>(e.to);
            if (e.capacity > 0 && dist[u] + e.cost < dist[to]) {
              dist[to] = dist[u] + e.cost;
              parent_arc[to] = a;
              changed = true;
            }
          }
        }
      }
      if (dist[t] == kInf) {
        break;
      }
      for (std::size_t u = t; u != s;) {
        const int a = parent_arc[u];
        arc(a).capacity -= 1;
        arc(a ^ 1).capacity += 1;
        u = static_cast<std::size_t>(arc(a ^ 1).to);
      }
      flow += 1;
      cost += dist[t];
    }
    return {flow, cost};
  }

 private:
  struct Arc {
    int to;
    int next;
    int capacity;
    int cost;
  };

  Arc& arc(int a) { return arcs_[static_cast<std::size_t>(a)]; }

  std::vector<int> head_;
  std::vector<Arc> arcs_;
};

/// Q(v) of Definition 2 on a freshly built network per vertex, the
/// reference for topo::q_of: wire arcs of capacity 1 (2 toward the mapper
/// host), host -> T, T -> T* and mapper -> T*, and a 2-unit flow from v.
std::optional<int> reference_q_of(const Topology& topo, NodeId mapper_host,
                                  NodeId v) {
  const std::size_t n = topo.node_capacity();
  const std::size_t t_any = n;
  const std::size_t t_star = n + 1;
  ReferenceMinCostFlow mcf(n + 2);
  for (const WireId w : topo.wires()) {
    const Wire& wire = topo.wire(w);
    const int cap_ab = (wire.b.node == mapper_host) ? 2 : 1;
    const int cap_ba = (wire.a.node == mapper_host) ? 2 : 1;
    mcf.add_arc(wire.a.node, wire.b.node, cap_ab, 1);
    mcf.add_arc(wire.b.node, wire.a.node, cap_ba, 1);
  }
  for (const NodeId h : topo.hosts()) {
    mcf.add_arc(h, t_any, 1, 0);
  }
  mcf.add_arc(t_any, t_star, 1, 0);
  mcf.add_arc(mapper_host, t_star, 1, 0);
  const auto [flow, cost] = mcf.run(v, t_star, 2);
  if (flow < 2) {
    return std::nullopt;
  }
  return cost;
}

int reference_q_value(const Topology& topo, NodeId mapper_host) {
  int best = 0;
  for (const NodeId v : topo.nodes()) {
    if (const auto q = reference_q_of(topo, mapper_host, v)) {
      best = std::max(best, *q);
    }
  }
  return best;
}

/// host0 -- sw0 -- sw1 -- host1, a minimal line network.
Topology line_network() {
  Topology t;
  const NodeId h0 = t.add_host("h0");
  const NodeId s0 = t.add_switch();
  const NodeId s1 = t.add_switch();
  const NodeId h1 = t.add_host("h1");
  t.connect(h0, 0, s0, 0);
  t.connect(s0, 1, s1, 1);
  t.connect(h1, 0, s1, 0);
  return t;
}

TEST(BfsDistances, LineNetwork) {
  const Topology t = line_network();
  const NodeId h0 = *t.find_host("h0");
  const auto dist = bfs_distances(t, h0);
  EXPECT_EQ(dist[h0], 0);
  EXPECT_EQ(dist[*t.find_host("h1")], 3);
}

TEST(BfsDistances, UnreachableIsMinusOne) {
  Topology t;
  const NodeId h = t.add_host();
  const NodeId s = t.add_switch();  // not connected
  const auto dist = bfs_distances(t, h);
  EXPECT_EQ(dist[h], 0);
  EXPECT_EQ(dist[s], -1);
}

TEST(Connected, DetectsDisconnection) {
  Topology t = line_network();
  EXPECT_TRUE(connected(t));
  t.add_switch();
  EXPECT_FALSE(connected(t));
}

TEST(Components, CountsAndLabels) {
  Topology t = line_network();
  const NodeId lone = t.add_switch();
  std::vector<int> comp;
  EXPECT_EQ(components(t, comp), 2);
  EXPECT_EQ(comp[lone], 1);
  EXPECT_EQ(comp[*t.find_host("h0")], 0);
}

TEST(Diameter, LineNetwork) {
  EXPECT_EQ(diameter(line_network()), 3);  // h0 .. h1
}

TEST(Diameter, StarTopology) {
  // host - leaf - center - leaf - host: diameter 4.
  EXPECT_EQ(diameter(star(3, 1)), 4);
}

TEST(Bridges, EveryEdgeOfATreeIsABridge) {
  const Topology t = line_network();
  EXPECT_EQ(bridges(t).size(), t.num_wires());
}

TEST(Bridges, CycleHasNoBridges) {
  const Topology t = ring(4, 0);
  EXPECT_TRUE(bridges(t).empty());
}

TEST(Bridges, ParallelWiresAreNotBridges) {
  Topology t;
  const NodeId a = t.add_switch();
  const NodeId b = t.add_switch();
  t.connect(a, 0, b, 0);
  t.connect(a, 1, b, 1);
  EXPECT_TRUE(bridges(t).empty());
}

TEST(Bridges, MixedGraph) {
  // Triangle a-b-c plus a pendant d attached to a: only a-d is a bridge.
  Topology t;
  const NodeId a = t.add_switch();
  const NodeId b = t.add_switch();
  const NodeId c = t.add_switch();
  const NodeId d = t.add_switch();
  t.connect(a, 0, b, 0);
  t.connect(b, 1, c, 1);
  t.connect(c, 0, a, 1);
  const WireId pendant = t.connect(a, 2, d, 0);
  const auto result = bridges(t);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], pendant);
}

TEST(Bridges, SelfLoopIsNotABridge) {
  Topology t;
  const NodeId a = t.add_switch();
  const NodeId b = t.add_switch();
  const WireId real = t.connect(a, 0, b, 0);
  t.connect(a, 1, a, 2);  // loopback cable
  const auto result = bridges(t);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0], real);
}

TEST(SwitchBridges, HostLinksExcluded) {
  const Topology t = line_network();
  // h0-s0, s0-s1, s1-h1 are all bridges but only s0-s1 is a switch-bridge.
  const auto sb = switch_bridges(t);
  ASSERT_EQ(sb.size(), 1u);
  const Wire& w = t.wire(sb[0]);
  EXPECT_TRUE(t.is_switch(w.a.node));
  EXPECT_TRUE(t.is_switch(w.b.node));
}

TEST(SeparatedSet, EmptyWhenNoSwitchBridges) {
  const Topology t = ring(5, 1);
  const auto f = separated_set(t);
  EXPECT_TRUE(std::none_of(f.begin(), f.end(), [](bool b) { return b; }));
}

TEST(SeparatedSet, LineNetworkCoreIsEverything) {
  // s0-s1 is a switch-bridge, but both sides contain hosts, so F is empty.
  const auto f = separated_set(line_network());
  EXPECT_TRUE(std::none_of(f.begin(), f.end(), [](bool b) { return b; }));
}

TEST(SeparatedSet, TailBehindSwitchBridgeIsInF) {
  common::Rng rng(42);
  const Topology t = with_switch_tail(5, 6, 3, rng);
  const auto f = separated_set(t);
  int in_f = 0;
  for (const NodeId n : t.nodes()) {
    if (f[n]) {
      EXPECT_TRUE(t.is_switch(n));
      ++in_f;
    }
  }
  EXPECT_EQ(in_f, 3);
}

TEST(Core, RemovesExactlyF) {
  common::Rng rng(7);
  const Topology t = with_switch_tail(6, 8, 2, rng);
  const auto f = separated_set(t);
  const auto f_count = static_cast<std::size_t>(
      std::count(f.begin(), f.end(), true));
  EXPECT_GE(f_count, 2u);  // at least the deliberately attached tail
  const Topology c = core(t);
  EXPECT_EQ(c.num_nodes(), t.num_nodes() - f_count);
  EXPECT_EQ(c.num_hosts(), t.num_hosts());  // F contains only switches
  for (const NodeId n : t.nodes()) {
    EXPECT_EQ(c.node_alive(n), !f[n]);
  }
  EXPECT_TRUE(connected(c));
}

TEST(QOf, LineNetworkValues) {
  const Topology t = line_network();
  const NodeId h0 = *t.find_host("h0");
  const NodeId h1 = *t.find_host("h1");
  // Walk h0 -> h0 (length 0) then h0 -> nearest host... Q(h0): shortest
  // walk from h0 through h0 to any host. Going out to s0 and back reuses
  // the first wire, which is allowed only as first-and-last: h0-s0-h0 has
  // length 2 using the wire twice (first == last). Q(h0) = 0 + ... the
  // degenerate walk h0 (length 0) already starts and ends at a host, but
  // Definition 2 requires reaching *a host* after v; the zero-length walk
  // ends at h0 which is a host, so Q(h0) = 0.
  EXPECT_EQ(q_of(t, h0, h0), 0);
  // h0 -> s0: then on to a host: continue to s1, h1: total 3. Returning to
  // h0 would reuse the h0 wire as 2nd edge (not last==first of the whole
  // walk? it IS first and last of the walk h0-s0-h0). Length 2. So Q(s0)=2.
  const auto switches = t.switches();
  const NodeId s0 = switches[0];
  const NodeId s1 = switches[1];
  EXPECT_EQ(q_of(t, h0, s0), 2);
  EXPECT_EQ(q_of(t, h0, s1), 3);  // h0-s0-s1-h1
  EXPECT_EQ(q_of(t, h0, h1), 3);
  EXPECT_EQ(q_value(t, h0), 3);
}

TEST(QOf, UndefinedBehindSwitchBridge) {
  common::Rng rng(3);
  const Topology t = with_switch_tail(5, 5, 2, rng);
  const auto f = separated_set(t);
  const NodeId mapper = t.hosts().front();
  for (const NodeId n : t.nodes()) {
    EXPECT_EQ(q_of(t, mapper, n).has_value(), !f[n])
        << "node " << n << " (" << t.name(n) << ")";
  }
}

TEST(QOf, RingHasNoFirstLastException) {
  // Ring of 3 switches, hosts on two of them. Q is finite everywhere
  // because the cycle provides edge-disjoint return paths.
  Topology t = ring(3, 0);
  const auto sw = t.switches();
  const NodeId h0 = t.add_host("h0");
  const NodeId h1 = t.add_host("h1");
  t.connect(h0, 0, sw[0], 2);
  t.connect(h1, 0, sw[1], 2);
  // Q(sw[2]): walk h0, sw0, sw2, sw1, h1: length 4, no edge reuse.
  EXPECT_EQ(q_of(t, h0, sw[2]), 4);
}

TEST(SearchDepth, MatchesQPlusDPlusOne) {
  const Topology t = line_network();
  const NodeId h0 = *t.find_host("h0");
  EXPECT_EQ(search_depth(t, h0), 3 + 3 + 1);
}

TEST(SearchDepth, PinnedOnBenchmarkFabrics) {
  // Q, D and Q + D + 1 on the fabrics the CLI and the benchmarks map, from
  // the host `sanmap` picks as mapper (C.util when present, else the first
  // host), and the one-BFS floor the CLI maps with. Any change to how the
  // bound or its floor is computed must keep these values.
  struct Case {
    const char* name;
    Topology topo;
    int q;
    int d;
    int depth;
    int floor;
  };
  const auto fat_tree = [](int leaves) {
    MegaFatTreeOptions options;
    options.leaf_switches = leaves;
    return mega_fat_tree(options);
  };
  common::Rng rng(1);
  DragonflyishOptions dragonfly;
  dragonfly.hosts_per_group = 16;
  std::vector<Case> cases;
  cases.push_back({"megafattree-64", fat_tree(64), 12, 10, 23, 21});
  cases.push_back({"megafattree-256", fat_tree(256), 36, 34, 71, 69});
  cases.push_back({"megafattree-512", fat_tree(512), 68, 66, 135, 133});
  cases.push_back(
      {"dragonfly-16", dragonfly_ish(dragonfly, rng), 9, 13, 23, 19});
  cases.push_back({"now", now_cluster(), 8, 8, 17, 13});
  for (const Case& c : cases) {
    const auto util = c.topo.find_host("C.util");
    const NodeId mapper = util ? *util : c.topo.hosts().front();
    const int q = q_value(c.topo, mapper);
    const int d = diameter(c.topo);
    EXPECT_EQ(q, c.q) << c.name;
    EXPECT_EQ(d, c.d) << c.name;
    EXPECT_EQ(search_depth(c.topo, mapper), c.depth) << c.name;
    EXPECT_EQ(search_depth_floor(c.topo, mapper), c.floor) << c.name;
  }
}

TEST(QOf, MatchesTheBellmanFordReferenceOnRandomFabrics) {
  // Every host as mapper and every live node as v, on seeded random
  // irregular fabrics: q_of agrees with the reference as an optional (a
  // nullopt is v in F), and the depth bound is the reference Q + D + 1.
  int undefined = 0;
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    common::Rng rng(seed);
    const int switches = 1 + static_cast<int>(rng.below(12));
    // Cap extras and hosts so every host finds a free switch port: the
    // spanning tree leaves 6 * switches + 2 ports and each extra link
    // takes two.
    const int extra =
        std::min(static_cast<int>(rng.below(8)), 3 * switches);
    const int hosts = std::min(2 + static_cast<int>(rng.below(10)),
                               6 * switches + 2 - 2 * extra);
    const Topology t = random_irregular(switches, hosts, extra, rng);
    for (const NodeId mapper : t.hosts()) {
      for (const NodeId v : t.nodes()) {
        const auto expected = reference_q_of(t, mapper, v);
        ASSERT_EQ(q_of(t, mapper, v), expected)
            << "seed " << seed << " mapper " << mapper << " v " << v;
        undefined += expected ? 0 : 1;
      }
      const int depth = search_depth(t, mapper);
      ASSERT_EQ(depth, reference_q_value(t, mapper) + diameter(t) + 1)
          << "seed " << seed << " mapper " << mapper;
      ASSERT_LE(search_depth_floor(t, mapper), depth)
          << "seed " << seed << " mapper " << mapper;
    }
  }
  EXPECT_GT(undefined, 0);  // the sweep covers v in F too
}

TEST(SearchDepth, PooledSolveMatchesReferenceAcrossChunks) {
  // Fabrics of 100 to 250 nodes span two to four of the solve's 64-vertex
  // chunks, so the pooled solve and its chunk-order merge are exercised;
  // the fabrics of the sweep above fit in one chunk and run inline.
  constexpr std::size_t kChunk = 64;
  int max_beyond_first_chunk = 0;
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    common::Rng rng(seed);
    const int switches = 70 + static_cast<int>(rng.below(60));
    const int extra = static_cast<int>(rng.below(40));
    const int hosts = 30 + static_cast<int>(rng.below(90));
    const Topology t = random_irregular(switches, hosts, extra, rng);
    ASSERT_GE(t.num_nodes(), 100u);
    ASSERT_LE(t.num_nodes(), 250u);
    const std::vector<NodeId> ids = t.hosts();
    for (const NodeId mapper : {ids.front(), ids[ids.size() / 2], ids.back()}) {
      int reference_q = 0;
      int first_chunk_q = 0;
      const std::vector<NodeId> vertices = t.nodes();
      for (std::size_t i = 0; i < vertices.size(); ++i) {
        const int q = reference_q_of(t, mapper, vertices[i]).value_or(0);
        reference_q = std::max(reference_q, q);
        if (i < kChunk) {
          first_chunk_q = std::max(first_chunk_q, q);
        }
      }
      max_beyond_first_chunk += first_chunk_q < reference_q ? 1 : 0;
      EXPECT_EQ(q_value(t, mapper), reference_q)
          << "seed " << seed << " mapper " << mapper;
      const int depth = search_depth(t, mapper);
      EXPECT_EQ(depth, reference_q + diameter(t) + 1)
          << "seed " << seed << " mapper " << mapper;
      EXPECT_LE(search_depth_floor(t, mapper), depth)
          << "seed " << seed << " mapper " << mapper;
    }
  }
  EXPECT_GT(max_beyond_first_chunk, 0);
}

TEST(QValue, RequiresPaperAssumptions) {
  Topology t;
  t.add_host("only");
  t.add_switch();
  EXPECT_THROW(q_value(t, 0), common::CheckFailure);
}

TEST(SwitchFarthestFromHosts, PicksDeepestSwitch) {
  // star: center is 2 hops from every host, leaves are 1 hop.
  const Topology t = star(4, 2);
  const NodeId far = switch_farthest_from_hosts(t);
  EXPECT_EQ(t.name(far), "center");
}

TEST(SwitchFarthestFromHosts, IgnoreListExcludesUtilityHost) {
  // Chain h - s0 - s1 - s2 with a utility host on s2. With the utility
  // host counted, s1 (distance 2 from both hosts) is the farthest; ignoring
  // it, s2 (distance 3 from h) is.
  Topology t;
  const NodeId h = t.add_host("h");
  const NodeId s0 = t.add_switch();
  const NodeId s1 = t.add_switch();
  const NodeId s2 = t.add_switch();
  t.connect(h, 0, s0, 0);
  t.connect(s0, 1, s1, 1);
  t.connect(s1, 2, s2, 2);
  const NodeId util = t.add_host("util");
  t.connect(util, 0, s2, 0);
  EXPECT_EQ(switch_farthest_from_hosts(t), s1);
  EXPECT_EQ(switch_farthest_from_hosts(t, {util}), s2);
}

/// The per-host definition switch_farthest_from_hosts answers in one
/// search: one breadth-first search per counted host, each switch's
/// nearest host, the first switch in switches() order at the maximum.
/// Also returns how many switches share that maximum.
std::pair<NodeId, int> farthest_by_per_host_searches(
    const Topology& t, const std::vector<NodeId>& ignore) {
  std::vector<int> nearest(t.node_capacity(),
                           std::numeric_limits<int>::max());
  for (const NodeId h : t.hosts()) {
    if (std::find(ignore.begin(), ignore.end(), h) != ignore.end()) {
      continue;
    }
    const std::vector<int> dist = bfs_distances(t, h);
    for (NodeId v = 0; v < dist.size(); ++v) {
      if (dist[v] >= 0) {
        nearest[v] = std::min(nearest[v], dist[v]);
      }
    }
  }
  NodeId best = kInvalidNode;
  int best_dist = -1;
  int tied = 0;
  for (const NodeId s : t.switches()) {
    if (nearest[s] == std::numeric_limits<int>::max()) {
      continue;
    }
    if (nearest[s] > best_dist) {
      best_dist = nearest[s];
      best = s;
      tied = 1;
    } else if (nearest[s] == best_dist) {
      ++tied;
    }
  }
  return {best, tied};
}

TEST(SwitchFarthestFromHosts, OneSearchMatchesThePerHostSearches) {
  std::vector<std::pair<std::string, Topology>> fabrics;
  MegaFatTreeOptions tree;
  tree.leaf_switches = 16;
  fabrics.emplace_back("mega_fat_tree", mega_fat_tree(tree));
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    common::Rng rng(seed);
    DragonflyishOptions dragonfly;
    dragonfly.groups = 4;
    dragonfly.switches_per_group = 4;
    fabrics.emplace_back("dragonfly_ish", dragonfly_ish(dragonfly, rng));
    fabrics.emplace_back("random_irregular", random_irregular(14, 20, 6, rng));
    fabrics.emplace_back("with_switch_tail", with_switch_tail(8, 10, 4, rng));
  }
  int ties = 0;
  for (const auto& [name, t] : fabrics) {
    const std::vector<NodeId> hosts = t.hosts();
    std::vector<NodeId> every_other;
    for (std::size_t i = 0; i < hosts.size(); i += 2) {
      every_other.push_back(hosts[i]);
    }
    for (const std::vector<NodeId>& ignore :
         {std::vector<NodeId>{}, std::vector<NodeId>{hosts.front()},
          std::vector<NodeId>{hosts.back()}, every_other}) {
      const auto [want, tied] = farthest_by_per_host_searches(t, ignore);
      EXPECT_EQ(switch_farthest_from_hosts(t, ignore), want)
          << name << ", " << ignore.size() << " hosts ignored";
      ties += tied > 1 ? 1 : 0;
    }
  }
  // The fat tree's upper levels tie, so the first-switch rule is exercised.
  EXPECT_GT(ties, 0);
}

}  // namespace
}  // namespace sanmap::topo
