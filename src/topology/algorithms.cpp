#include "topology/algorithms.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace sanmap::topo {

std::vector<int> bfs_distances(const Topology& topo, NodeId from) {
  SANMAP_CHECK(topo.node_alive(from));
  std::vector<int> dist(topo.node_capacity(), -1);
  // Flat FIFO (head index over a vector) and direct port-table iteration:
  // megafabric benches run this over thousands of nodes, where per-visit
  // neighbor vectors dominate the profile.
  std::vector<NodeId> queue;
  queue.reserve(topo.num_nodes());
  dist[from] = 0;
  queue.push_back(from);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId n = queue[head];
    const int next = dist[n] + 1;
    Port p = 0;
    for (const WireId w : topo.port_wires(n)) {
      const PortRef here{n, p++};
      if (w == kInvalidWire) {
        continue;
      }
      const NodeId far = topo.wire(w).opposite(here).node;
      if (dist[far] == -1) {
        dist[far] = next;
        queue.push_back(far);
      }
    }
  }
  return dist;
}

bool connected(const Topology& topo) {
  const auto live = topo.nodes();
  if (live.empty()) {
    return true;
  }
  const auto dist = bfs_distances(topo, live.front());
  return std::all_of(live.begin(), live.end(),
                     [&](NodeId n) { return dist[n] >= 0; });
}

int components(const Topology& topo, std::vector<int>& component_of) {
  component_of.assign(topo.node_capacity(), -1);
  int count = 0;
  for (const NodeId start : topo.nodes()) {
    if (component_of[start] != -1) {
      continue;
    }
    std::vector<NodeId> queue{start};
    component_of[start] = count;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId n = queue[head];
      Port p = 0;
      for (const WireId w : topo.port_wires(n)) {
        const PortRef here{n, p++};
        if (w == kInvalidWire) {
          continue;
        }
        const NodeId far = topo.wire(w).opposite(here).node;
        if (component_of[far] == -1) {
          component_of[far] = count;
          queue.push_back(far);
        }
      }
    }
    ++count;
  }
  return count;
}

Topology component_of(const Topology& topo, NodeId anchor) {
  Topology out = topo;
  std::vector<int> component;
  components(topo, component);
  for (const NodeId n : topo.nodes()) {
    if (component[n] != component[anchor]) {
      out.remove_node(n);
    }
  }
  return out;
}

int diameter(const Topology& topo) {
  SANMAP_CHECK_MSG(connected(topo), "diameter requires a connected topology");
  int best = 0;
  for (const NodeId n : topo.nodes()) {
    const auto dist = bfs_distances(topo, n);
    for (const NodeId m : topo.nodes()) {
      best = std::max(best, dist[m]);
    }
  }
  return best;
}

namespace {

/// Iterative Tarjan bridge finding on the multigraph. A wire is a bridge iff
/// low(child) > disc(parent) following that specific wire; parallel wires
/// and self-loops are handled because traversal is per-wire, not per-node.
class BridgeFinder {
 public:
  explicit BridgeFinder(const Topology& topo) : topo_(topo) {
    disc_.assign(topo.node_capacity(), -1);
    low_.assign(topo.node_capacity(), -1);
  }

  std::vector<WireId> run() {
    for (const NodeId n : topo_.nodes()) {
      if (disc_[n] == -1) {
        dfs(n);
      }
    }
    std::sort(result_.begin(), result_.end());
    return result_;
  }

 private:
  struct Frame {
    NodeId node;
    WireId via;  // wire used to enter `node`; kInvalidWire at roots
    Port next_port = 0;
  };

  void dfs(NodeId root) {
    std::vector<Frame> stack;
    disc_[root] = low_[root] = timer_++;
    stack.push_back(Frame{root, kInvalidWire, 0});
    while (!stack.empty()) {
      Frame& frame = stack.back();
      const NodeId n = frame.node;
      if (frame.next_port < topo_.port_count(n)) {
        const Port p = frame.next_port++;
        const auto w = topo_.wire_at(n, p);
        if (!w || *w == frame.via) {
          continue;  // free port, or the single wire we came in on
        }
        const PortRef far = topo_.wire(*w).opposite(PortRef{n, p});
        if (far.node == n) {
          continue;  // self-loop never contributes to bridges
        }
        if (disc_[far.node] == -1) {
          disc_[far.node] = low_[far.node] = timer_++;
          stack.push_back(Frame{far.node, *w, 0});
        } else {
          low_[n] = std::min(low_[n], disc_[far.node]);
        }
      } else {
        const WireId via = frame.via;
        stack.pop_back();  // invalidates `frame`
        if (!stack.empty()) {
          Frame& parent = stack.back();
          low_[parent.node] = std::min(low_[parent.node], low_[n]);
          if (low_[n] > disc_[parent.node]) {
            result_.push_back(via);
          }
        }
      }
    }
  }

  const Topology& topo_;
  std::vector<int> disc_;
  std::vector<int> low_;
  std::vector<WireId> result_;
  int timer_ = 0;
};

}  // namespace

std::vector<WireId> bridges(const Topology& topo) {
  return BridgeFinder(topo).run();
}

std::vector<WireId> switch_bridges(const Topology& topo) {
  std::vector<WireId> out;
  for (const WireId w : bridges(topo)) {
    const Wire& wire = topo.wire(w);
    if (topo.is_switch(wire.a.node) && topo.is_switch(wire.b.node)) {
      out.push_back(w);
    }
  }
  return out;
}

std::vector<bool> separated_set(const Topology& topo) {
  std::vector<bool> in_f(topo.node_capacity(), false);
  const auto sbridges = switch_bridges(topo);
  for (const WireId sb : sbridges) {
    const Wire& wire = topo.wire(sb);
    // BFS from one end avoiding this wire; whichever side has no hosts is
    // separated from H by this switch-bridge.
    for (const PortRef side : {wire.a, wire.b}) {
      std::vector<bool> seen(topo.node_capacity(), false);
      std::vector<NodeId> reached{side.node};
      seen[side.node] = true;
      bool has_host = false;
      for (std::size_t head = 0; head < reached.size(); ++head) {
        const NodeId n = reached[head];
        if (topo.is_host(n)) {
          has_host = true;
        }
        Port p = 0;
        for (const WireId w : topo.port_wires(n)) {
          const PortRef here{n, p++};
          if (w == kInvalidWire || w == sb) {
            continue;
          }
          const NodeId far = topo.wire(w).opposite(here).node;
          if (!seen[far]) {
            seen[far] = true;
            reached.push_back(far);
          }
        }
      }
      if (!has_host) {
        for (const NodeId n : reached) {
          in_f[n] = true;
        }
      }
    }
  }
  return in_f;
}

Topology core(const Topology& topo) {
  Topology out = topo;
  const auto in_f = separated_set(topo);
  for (NodeId n = 0; n < in_f.size(); ++n) {
    if (in_f[n] && out.node_alive(n)) {
      out.remove_node(n);
    }
  }
  return out;
}

namespace {

/// The flow network behind Q(v) (Definition 2), laid out once per mapper
/// host and solved from any number of sources.
///
/// Vertices are the topology's node ids, then T ("any host" collector) and
/// T* (sink). Each wire becomes a pair of unit-capacity, unit-cost directed
/// arcs. A min-cost solution never uses both directions of one wire
/// (removing such a pair lowers cost), so this models "no repeated edge in
/// either direction". The mapper host's own wire gets capacity 2 toward the
/// mapper, implementing Definition 2's "the first and last may be the same"
/// allowance. Every host feeds T at cost 0; T and the mapper host each feed
/// T* with one unit, so one unit must return to the mapper host and one may
/// end at any host. Q(v) is the cost of a 2-unit flow from v to T*.
///
/// Arcs live in flat CSR arrays, each paired with its reverse. They are
/// immutable once built, so any number of QSolvers share them.
struct QArcs {
  QArcs(const Topology& topo, NodeId mapper_host)
      : num_nodes(static_cast<std::uint32_t>(topo.node_capacity())),
        t_any(num_nodes),
        t_star(num_nodes + 1),
        first(num_nodes + 4, 0) {
    SANMAP_CHECK(topo.node_alive(mapper_host) && topo.is_host(mapper_host));
    struct Arc {
      std::uint32_t from;
      std::uint32_t to;
      int capacity;
      int cost;
    };
    std::vector<Arc> arcs;
    arcs.reserve(2 * topo.num_wires() + topo.num_hosts() + 2);
    for (const WireId w : topo.wires()) {
      const Wire& wire = topo.wire(w);
      const int cap_ab = (wire.b.node == mapper_host) ? 2 : 1;
      const int cap_ba = (wire.a.node == mapper_host) ? 2 : 1;
      arcs.push_back({wire.a.node, wire.b.node, cap_ab, 1});
      arcs.push_back({wire.b.node, wire.a.node, cap_ba, 1});
    }
    for (const NodeId h : topo.hosts()) {
      arcs.push_back({h, t_any, 1, 0});
    }
    arcs.push_back({t_any, t_star, 1, 0});
    arcs.push_back({mapper_host, t_star, 1, 0});

    // Counting sort by tail: count u's arcs in first[u + 2], prefix-sum,
    // then fill through the cursor first[u + 1], which leaves u's arcs in
    // [first[u], first[u + 1]).
    for (const Arc& arc : arcs) {
      ++first[arc.from + 2];
      ++first[arc.to + 2];
    }
    for (std::size_t u = 2; u < first.size(); ++u) {
      first[u] += first[u - 1];
    }
    const std::size_t slots = 2 * arcs.size();
    head.resize(slots);
    reverse.resize(slots);
    cost.resize(slots);
    capacity.resize(slots);
    for (const Arc& arc : arcs) {
      const std::uint32_t fwd = first[arc.from + 1]++;
      const std::uint32_t bwd = first[arc.to + 1]++;
      head[fwd] = arc.to;
      reverse[fwd] = bwd;
      cost[fwd] = arc.cost;
      capacity[fwd] = arc.capacity;
      head[bwd] = arc.from;
      reverse[bwd] = fwd;
      cost[bwd] = -arc.cost;
      capacity[bwd] = 0;
    }
  }

  const std::uint32_t num_nodes;
  const std::uint32_t t_any;
  const std::uint32_t t_star;
  // u's arcs are [first[u], first[u + 1]); arc a runs to head[a] and its
  // paired reverse arc is reverse[a].
  std::vector<std::uint32_t> first;
  std::vector<std::uint32_t> head;
  std::vector<std::uint32_t> reverse;
  std::vector<int> cost;
  // Initial residual capacities; each QSolver works on its own copy.
  std::vector<int> capacity;
};

/// Solves Q(v) over shared QArcs with scratch of its own. Everything a
/// solve touches is allocated by the constructor, so solve() allocates
/// nothing and a solver built on one thread can run on another.
///
/// A source is solved by successive shortest paths with exactly two
/// augmentations, each found by Dial's bucket queue (costs are small
/// integers):
///
///  1. plain 0/1 costs give distances d₁ and the first path. Before any
///     augmentation T and T* have no residual out-arc, so d₁ over real nodes
///     is the BFS distance and its maximum is v's eccentricity;
///  2. reduced costs c(u, w) + d₁(u) − d₁(w), which are non-negative in the
///     residual network after the first augmentation, give the second path.
///     Only nodes the first pass reached are reachable in the second.
///
/// The min cost of a 2-unit flow does not depend on how ties are broken, so
/// Q(v) = d₁(T*) + (d₂'(T*) + d₁(T*) − d₁(v)) with d₁(v) = 0 is exact.
///
/// Solvers of one call sit side by side and each rewrites its own members
/// (vector ends, top_, farthest_) on every push, so each gets a cache line
/// of its own.
class alignas(64) QSolver {
 public:
  explicit QSolver(const QArcs& arcs)
      : arcs_(&arcs),
        capacity_(arcs.capacity),
        dist_(arcs.num_nodes + 2),
        potential_(arcs.num_nodes + 2, 0),
        parent_(arcs.num_nodes + 2),
        // A tentative distance is at most a simple path's cost (≤ 1 per arc,
        // ≤ num_nodes + 1 arcs) plus one arc, less a non-negative potential.
        bucket_(arcs.num_nodes + 3, kNone) {
    // Each settled vertex relaxes each of its arcs once, so a pass pushes
    // at most one queue entry per arc, plus the source; a shortest path
    // visits each vertex at most once.
    queue_.reserve(arcs.head.size() + 1);
    path_.reserve(arcs.num_nodes + 2);
  }

  struct FromSource {
    std::optional<int> q;  // Q(v); nullopt when no 2-unit flow exists (v ∈ F)
    int eccentricity = 0;  // largest BFS distance from v to a reachable node
  };

  FromSource solve(NodeId v) {
    FromSource out;
    const int first = shortest_path(v, /*stop_at_sink=*/false);
    out.eccentricity = farthest_;
    if (first == kInf) {
      return out;
    }
    // Augment one unit along the first path, remembering it so the
    // capacities can be restored for the next source.
    path_.clear();
    for (std::uint32_t u = arcs_->t_star; u != v;
         u = arcs_->head[arcs_->reverse[parent_[u]]]) {
      path_.push_back(parent_[u]);
    }
    augment(+1);
    std::swap(potential_, dist_);
    const int second = shortest_path(v, /*stop_at_sink=*/true);
    augment(-1);
    std::fill(potential_.begin(), potential_.end(), 0);
    if (second != kInf) {
      out.q = first + second + first;
    }
    return out;
  }

 private:
  static constexpr int kInf = std::numeric_limits<int>::max() / 2;
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();

  /// Pushes `units` along path_ (negative units undo an earlier push).
  void augment(int units) {
    for (const std::uint32_t a : path_) {
      capacity_[a] -= units;
      capacity_[arcs_->reverse[a]] += units;
    }
  }

  /// Dial's algorithm from v over residual arcs with reduced costs
  /// cost + potential(tail) − potential(head). Fills dist_, parent_ and
  /// farthest_ (the largest distance of a settled topology node); returns
  /// the distance of T* (kInf when unreachable). With `stop_at_sink` it
  /// returns as soon as T* is settled. Bucket d is a LIFO list threaded
  /// through queue_. A vertex is pushed only when its distance strictly
  /// drops, so it has at most one entry per distance, and an entry whose
  /// distance is no longer the vertex's is stale.
  int shortest_path(NodeId v, bool stop_at_sink) {
    const QArcs& arcs = *arcs_;
    std::fill(dist_.begin(), dist_.end(), kInf);
    std::fill(bucket_.begin(), bucket_.begin() + top_ + 1, kNone);
    queue_.clear();
    top_ = 0;
    farthest_ = 0;
    dist_[v] = 0;
    push(v, 0);
    for (int d = 0; d <= top_; ++d) {
      std::uint32_t& bucket = bucket_[static_cast<std::size_t>(d)];
      while (bucket != kNone) {
        const Entry entry = queue_[bucket];
        bucket = entry.next;
        const std::uint32_t u = entry.vertex;
        if (dist_[u] != d) {
          continue;  // stale: u was settled at a smaller distance
        }
        if (u < arcs.num_nodes) {
          farthest_ = d;
        } else if (u == arcs.t_star && stop_at_sink) {
          return d;
        }
        for (std::uint32_t a = arcs.first[u]; a < arcs.first[u + 1]; ++a) {
          const std::uint32_t w = arcs.head[a];
          if (capacity_[a] <= 0) {
            continue;
          }
          const int next = d + arcs.cost[a] + potential_[u] - potential_[w];
          SANMAP_DCHECK(next >= d);  // reduced costs are non-negative
          if (next < dist_[w]) {
            dist_[w] = next;
            parent_[w] = a;
            push(w, next);
          }
        }
      }
    }
    return dist_[arcs.t_star];
  }

  void push(std::uint32_t vertex, int d) {
    SANMAP_DCHECK(static_cast<std::size_t>(d) < bucket_.size());
    SANMAP_DCHECK(queue_.size() < queue_.capacity());
    const auto slot = static_cast<std::size_t>(d);
    queue_.push_back(Entry{vertex, bucket_[slot]});
    bucket_[slot] = static_cast<std::uint32_t>(queue_.size() - 1);
    top_ = std::max(top_, d);
  }

  struct Entry {
    std::uint32_t vertex;
    std::uint32_t next;  // next entry of the same bucket, or kNone
  };

  const QArcs* arcs_;
  // Residual capacities: augment() changes them and restores them before
  // solve() returns.
  std::vector<int> capacity_;
  // Per-source work arrays, reused across sources.
  std::vector<int> dist_;
  std::vector<int> potential_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> bucket_;
  std::vector<Entry> queue_;
  std::vector<std::uint32_t> path_;
  int top_ = 0;
  int farthest_ = 0;
};

/// Vertices per chunk of the depth bound's solve. A constant, not the core
/// count, so the chunks and their merge are the same on every machine, and
/// a fabric of at most this many nodes is solved inline on the caller.
constexpr std::size_t kSolveChunk = 64;

}  // namespace

QAndDiameter q_and_diameter(const Topology& topo, NodeId mapper_host) {
  SANMAP_CHECK_MSG(topo.num_hosts() >= 2 && topo.num_switches() >= 1,
                   "the paper assumes >=1 switch and >=2 hosts");
  const QArcs arcs(topo, mapper_host);
  const std::vector<NodeId> vertices = topo.nodes();
  std::vector<QAndDiameter> chunks((vertices.size() + kSolveChunk - 1) /
                                   kSolveChunk);
  // One solver per worker, all built here on the calling thread: memory a
  // worker thread allocates stays resident in its arena after the call.
  const std::size_t workers =
      std::min(chunks.size(), common::ThreadPool::default_size());
  std::vector<QSolver> solvers;
  solvers.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    solvers.emplace_back(arcs);
  }
  // Worker w solves chunks w, w + workers, ...; each chunk's result is its
  // own, so the merge below does not depend on which worker solved it.
  common::CallPool pool;
  pool.run(workers, [&](std::size_t w) {
    QSolver& solver = solvers[w];
    for (std::size_t c = w; c < chunks.size(); c += workers) {
      const std::size_t end =
          std::min(vertices.size(), (c + 1) * kSolveChunk);
      QAndDiameter chunk;
      for (std::size_t i = c * kSolveChunk; i < end; ++i) {
        const auto from_v = solver.solve(vertices[i]);
        chunk.q = std::max(chunk.q, from_v.q.value_or(0));
        chunk.diameter = std::max(chunk.diameter, from_v.eccentricity);
      }
      chunks[c] = chunk;
    }
  });
  QAndDiameter out;
  for (const QAndDiameter& chunk : chunks) {
    out.q = std::max(out.q, chunk.q);
    out.diameter = std::max(out.diameter, chunk.diameter);
  }
  return out;
}

std::optional<int> q_of(const Topology& topo, NodeId mapper_host, NodeId v) {
  const QArcs arcs(topo, mapper_host);
  SANMAP_CHECK(topo.node_alive(v));
  return QSolver(arcs).solve(v).q;
}

int q_value(const Topology& topo, NodeId mapper_host) {
  return q_and_diameter(topo, mapper_host).q;
}

int search_depth(const Topology& topo, NodeId mapper_host) {
  const auto [q, d] = q_and_diameter(topo, mapper_host);
  SANMAP_CHECK_MSG(connected(topo), "diameter requires a connected topology");
  return q + d + 1;
}

int search_depth_floor(const Topology& topo, NodeId mapper_host) {
  SANMAP_CHECK(topo.is_host(mapper_host));
  const std::vector<int> dist = bfs_distances(topo, mapper_host);
  int farthest_host = 0;
  for (const NodeId h : topo.hosts()) {
    farthest_host = std::max(farthest_host, dist[h]);
  }
  return farthest_host + *std::max_element(dist.begin(), dist.end()) + 1;
}

NodeId switch_farthest_from_hosts(const Topology& topo,
                                  const std::vector<NodeId>& ignore) {
  // One search from every counted host at once: a node's distance is then
  // its distance to the nearest of them, the minimum of the per-host
  // searches.
  std::vector<std::uint8_t> ignored(topo.node_capacity(), 0);
  for (const NodeId h : ignore) {
    if (h < ignored.size()) {
      ignored[h] = 1;
    }
  }
  std::vector<int> dist(topo.node_capacity(), -1);
  std::vector<NodeId> queue;
  queue.reserve(topo.num_nodes());
  for (const NodeId h : topo.hosts()) {
    if (ignored[h] == 0) {
      dist[h] = 0;
      queue.push_back(h);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const NodeId n = queue[head];
    Port p = 0;
    for (const WireId w : topo.port_wires(n)) {
      const PortRef here{n, p++};
      if (w == kInvalidWire) {
        continue;
      }
      const NodeId far = topo.wire(w).opposite(here).node;
      if (dist[far] == -1) {
        dist[far] = dist[n] + 1;
        queue.push_back(far);
      }
    }
  }
  NodeId best = kInvalidNode;
  int best_dist = -1;
  for (const NodeId s : topo.switches()) {
    if (dist[s] > best_dist) {
      best_dist = dist[s];
      best = s;
    }
  }
  SANMAP_CHECK_MSG(best != kInvalidNode,
                   "no switch is reachable from any (non-ignored) host");
  return best;
}

}  // namespace sanmap::topo
