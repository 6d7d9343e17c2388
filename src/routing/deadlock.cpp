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

/// Builds the graph from a dependency stream: `stream(visit)` calls
/// visit(held, requested) per dependency.
template <typename Stream>
DependencyGraph dependency_graph(std::size_t num_channels, Stream&& stream) {
  DependencyGraph graph;
  graph.next.resize(num_channels);
  stream([&](const Channel& held, const Channel& requested) {
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

}  // namespace

DeadlockAnalysis analyze_routes(const topo::Topology& topo,
                                const RoutingResult& routes) {
  return analyze(dependency_graph(
      topo.wire_capacity() * 2, [&](const auto& visit) {
        for_each_walked_dependency(topo, routes, visit);
      }));
}

DeadlockAnalysis analyze_channel_paths(
    const topo::Topology& topo,
    const std::vector<std::vector<Channel>>& paths) {
  return analyze(dependency_graph(
      topo.wire_capacity() * 2,
      [&](const auto& visit) { for_each_dependency(paths, visit); }));
}

}  // namespace sanmap::routing
