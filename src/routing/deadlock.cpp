#include "routing/deadlock.hpp"

#include <algorithm>
#include <utility>

#include "common/check.hpp"

namespace sanmap::routing {

namespace {

/// Dense channel ids: wire * 2 + direction.
std::size_t channel_id(const Channel& c) {
  return static_cast<std::size_t>(c.wire) * 2 +
         static_cast<std::size_t>(c.a_to_b);
}

Channel channel_from_id(std::size_t id) {
  return Channel{static_cast<topo::WireId>(id / 2), (id % 2) != 0};
}

/// The channel-dependency graph as dense per-channel successor lists,
/// deduplicated, each in first-seen order.
struct DependencyGraph {
  std::vector<std::vector<std::size_t>> next;
  std::size_t count = 0;
};

/// Builds the graph from either dependency stream of for_each_dependency
/// (explicit paths, or a topology plus its route table).
template <typename... Input>
DependencyGraph dependency_graph(std::size_t num_channels,
                                 const Input&... input) {
  DependencyGraph graph;
  graph.next.resize(num_channels);
  for_each_dependency(input..., [&](const Channel& held,
                                    const Channel& requested) {
    auto& list = graph.next[channel_id(held)];
    const std::size_t to = channel_id(requested);
    if (std::find(list.begin(), list.end(), to) == list.end()) {
      list.push_back(to);
      ++graph.count;
    }
  });
  return graph;
}

DeadlockAnalysis analyze(const DependencyGraph& graph) {
  const std::size_t num_channels = graph.next.size();
  const auto& deps = graph.next;

  DeadlockAnalysis result;
  result.channels = num_channels;
  result.dependencies = graph.count;

  // Iterative three-color DFS for a cycle.
  enum : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<std::uint8_t> color(num_channels, kWhite);
  for (std::size_t start = 0; start < num_channels; ++start) {
    if (color[start] != kWhite) {
      continue;
    }
    struct Frame {
      std::size_t node;
      std::size_t next_child = 0;
    };
    std::vector<Frame> stack{{start, 0}};
    color[start] = kGray;
    while (!stack.empty()) {
      Frame& frame = stack.back();
      if (frame.next_child < deps[frame.node].size()) {
        const std::size_t child = deps[frame.node][frame.next_child++];
        if (color[child] == kGray) {
          // Cycle found: walk the gray stack back to `child`.
          std::vector<Channel> cycle;
          cycle.push_back(channel_from_id(child));
          for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
            cycle.push_back(channel_from_id(it->node));
            if (it->node == child) {
              break;
            }
          }
          std::reverse(cycle.begin(), cycle.end());
          result.deadlock_free = false;
          result.cycle = std::move(cycle);
          return result;
        }
        if (color[child] == kWhite) {
          color[child] = kGray;
          stack.push_back(Frame{child, 0});
        }
      } else {
        color[frame.node] = kBlack;
        stack.pop_back();
      }
    }
  }
  result.deadlock_free = true;
  return result;
}

/// Longest-path relaxation over the graph's edges in ascending (from, to)
/// order (see check_mm_condition in the header).
MmCondition mm_condition(DependencyGraph graph) {
  const std::size_t num_channels = graph.next.size();
  std::vector<bool> participates(num_channels, false);
  for (std::size_t from = 0; from < num_channels; ++from) {
    auto& list = graph.next[from];
    std::sort(list.begin(), list.end());
    participates[from] = participates[from] || !list.empty();
    for (const std::size_t to : list) {
      participates[to] = true;
    }
  }

  MmCondition result;
  for (std::size_t c = 0; c < num_channels; ++c) {
    if (participates[c]) {
      ++result.channels;
    }
  }
  result.rank.assign(num_channels, 0);
  // Each round propagates rank constraints one more edge down every
  // dependency chain; a DAG's longest chain has at most `channels`
  // vertices, so a change after round `channels` means a chain longer than
  // the vertex count — a cycle.
  for (std::size_t round = 0; round <= result.channels; ++round) {
    bool changed = false;
    for (std::size_t from = 0; from < num_channels; ++from) {
      for (const std::size_t to : graph.next[from]) {
        if (result.rank[to] <= result.rank[from]) {
          result.rank[to] = result.rank[from] + 1;
          changed = true;
        }
      }
    }
    ++result.iterations;
    if (!changed) {
      result.holds = true;
      return result;
    }
  }
  result.holds = false;  // still relaxing past the DAG bound: cyclic
  return result;
}

}  // namespace

std::vector<std::vector<Channel>> route_channel_paths(
    const topo::Topology& topo, const RoutingResult& routes) {
  std::vector<std::vector<Channel>> paths;
  paths.reserve(routes.routes.size());
  for (const auto& [key, route] : routes.routes) {
    std::vector<Channel> channels;
    channels.reserve(route.wires.size());
    for (std::size_t i = 0; i < route.wires.size(); ++i) {
      const topo::Wire& wire = topo.wire(route.wires[i]);
      channels.push_back(Channel{route.wires[i],
                                 wire.a.node == route.nodes[i]});
    }
    paths.push_back(std::move(channels));
  }
  return paths;
}

DeadlockAnalysis analyze_routes(const topo::Topology& topo,
                                const RoutingResult& routes) {
  return analyze(dependency_graph(topo.wire_capacity() * 2, topo, routes));
}

DeadlockAnalysis analyze_channel_paths(
    const topo::Topology& topo,
    const std::vector<std::vector<Channel>>& paths) {
  return analyze(dependency_graph(topo.wire_capacity() * 2, paths));
}

MmCondition check_mm_condition(const topo::Topology& topo,
                               const std::vector<std::vector<Channel>>& paths) {
  return mm_condition(dependency_graph(topo.wire_capacity() * 2, paths));
}

MmCondition check_mm_condition(const topo::Topology& topo,
                               const RoutingResult& routes) {
  return mm_condition(
      dependency_graph(topo.wire_capacity() * 2, topo, routes));
}

bool updown_compliant(const RoutingResult& routes) {
  const UpDownOrientation& orientation = routes.orientation;
  for (const auto& [key, route] : routes.routes) {
    bool went_down = false;
    for (std::size_t i = 0; i < route.wires.size(); ++i) {
      const bool up = orientation.goes_up(route.wires[i], route.nodes[i]);
      if (up && went_down) {
        return false;  // a turn from a down edge onto an up edge
      }
      if (!up) {
        went_down = true;
      }
    }
  }
  return true;
}

}  // namespace sanmap::routing
