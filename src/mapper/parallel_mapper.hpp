// Parallel mapping (§6): several mapper hosts explore depth-bounded local
// regions concurrently; the partial maps are then fused into a global view
// with merge_partial_maps.
//
// Each local mapper is a standard Berkeley mapper with a small search
// depth; since the mappers run simultaneously (each on its own host), the
// network-facing time of the whole operation is the *maximum* of the local
// times plus a merge charge, not the sum — that is the performance
// potential §6 describes. Correctness requires coverage: every switch must
// lie within some mapper's exploration ball, or the merged map will
// (faithfully) miss the uncovered region.
#pragma once

#include <vector>

#include "common/sim_time.hpp"
#include "mapper/map_result.hpp"
#include "mapper/partial_merge.hpp"
#include "simnet/network.hpp"

namespace sanmap::mapper {

struct ParallelConfig {
  /// The hosts running active local mappers (all hosts still answer
  /// host-probes as passive responders).
  std::vector<topo::NodeId> mappers;
  /// Per-mapper exploration depth (probe-string length bound). Small by
  /// design — that is where the savings come from.
  int local_depth = 4;
  /// Heuristics for the local mappers.
  bool port_order_heuristic = true;
  bool skip_known_ports = true;
  /// Outstanding-probe window of each local mapper (see
  /// MapperConfig::pipeline_window). >= 2 makes every local mapper overlap
  /// its own probe timeouts, on top of the across-mapper concurrency this
  /// class already models by max-taking.
  int pipeline_window = 1;
};

struct ParallelMapResult {
  topo::Topology map;
  /// Wall-clock of the parallel phase: max over the local mappers plus the
  /// merge charge.
  common::SimTime elapsed{};
  /// Total probes across all mappers (network load).
  std::uint64_t total_probes = 0;
  /// Per-mapper local results (times, probes, partial sizes).
  struct Local {
    topo::NodeId mapper = topo::kInvalidNode;
    common::SimTime elapsed{};
    std::uint64_t probes = 0;
    std::size_t nodes = 0;
  };
  std::vector<Local> locals;
  PartialMergeStats merge;
};

class ParallelMapper {
 public:
  ParallelMapper(simnet::Network& net, ParallelConfig config);

  ParallelMapResult run();

 private:
  simnet::Network* net_;
  ParallelConfig config_;
};

}  // namespace sanmap::mapper
