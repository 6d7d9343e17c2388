#include "analysis/route_walk.hpp"

#include <algorithm>
#include <vector>

#include "analysis/lints.hpp"

namespace sanmap::analysis {

bool walk_routes(const topo::Topology& topo, const routing::RouteTable& table,
                 const RouteChecks& checks, common::CallPool& pool) {
  const auto n = static_cast<std::uint32_t>(table.hosts().size());
  struct Chunk {
    DiagnosticReport structure;
    std::optional<DependencyWalk> dependencies;
    bool sound = true;
  };
  std::vector<Chunk> chunks((n + kWalkChunk - 1) / kWalkChunk);
  pool.run(chunks.size(), [&](std::size_t c) {
    Chunk& chunk = chunks[c];
    if (checks.dependencies != nullptr) {
      chunk.dependencies.emplace(topo);
    }
    const auto begin = static_cast<std::uint32_t>(c) * kWalkChunk;
    table.for_each_route(
        begin, std::min(n, begin + kWalkChunk),
        [&](topo::NodeId src, topo::NodeId dst,
            const routing::HostRoute& route) {
          if (checks.structure != nullptr &&
              !lint_route(topo, src, dst, route, chunk.structure)) {
            chunk.sound = false;
          } else if (chunk.sound) {
            if (checks.legality != nullptr) {
              checks.legality->add(src, dst, route);
            }
            if (chunk.dependencies) {
              chunk.dependencies->add(route);
            }
          }
        });
  });
  bool sound = true;
  for (const Chunk& chunk : chunks) {
    if (checks.structure != nullptr) {
      checks.structure->merge(chunk.structure);
    }
    if (checks.dependencies != nullptr) {
      checks.dependencies->merge(*chunk.dependencies);
    }
    sound = sound && chunk.sound;
  }
  return sound;
}

}  // namespace sanmap::analysis
