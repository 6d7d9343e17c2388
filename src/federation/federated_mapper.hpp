// Sharded federated mapping: per-region mappers, boundary resolution, and a
// verified merged model.
//
// The paper maps a whole SAN from one host; production fabrics are mapped
// by regions. FederatedMapper runs one depth-bounded Berkeley session per
// planned region (federation::partition_fabric) *concurrently* on real
// threads (common::ThreadPool, one per region) — each region on its own
// seed host with its own simnet::Network view, its own probe::ProbeEngine
// pipelined 8 probes deep and its own probe budget — then hands the
// partial maps to the boundary resolver: mapper::merge_partial_maps, the §3.2 deduction cascade re-applied across
// regions, fuses every switch that two or more regions observed (host
// anchors + one-wire-per-port slot conflicts propagate the identification
// along shared edges).
//
// The merged model is then treated exactly like a monolithic one: UP*/DOWN*
// routes are recomputed from scratch and the static analyzer (src/analysis)
// re-proves legality and deadlock freedom, with both certificates re-checked
// by their independent checkers inside analysis::analyze (a failed re-check
// is an SL202 error). `certified` summarizes that gate; callers (the CLI,
// serve --federate, the MapCatalog publish path) must not treat an
// uncertified merged map as usable — a federation bug must not be able to
// smuggle an unsafe route table past the Dally–Seitz condition just because
// no single mapper ever saw the whole fabric.
//
// Timing model: regions genuinely overlap (each runs on its own host), so
// the federated wall-clock is the *maximum* of the per-region virtual times
// plus a merge charge per loaded model vertex (mapper::kMergeCostPerVertex)
// — the same max-plus-merge model ParallelMapper established for §6.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "common/sim_time.hpp"
#include "federation/partition.hpp"
#include "mapper/partial_merge.hpp"
#include "routing/engine.hpp"
#include "routing/routes.hpp"
#include "simnet/network.hpp"
#include "topology/topology.hpp"

namespace sanmap::simnet {
class FaultSchedule;
}

namespace sanmap::federation {

/// The route choices (the base) route the merged model from its natural
/// root: its switches have no names before the merge.
struct FederationConfig : routing::RouteChoices {
  /// Region layout: explicit seeds or auto:<k> discovery.
  FederationSpec spec;
  PartitionOptions partition;

  /// Runaway guard per region (see MapperConfig::max_explorations).
  std::size_t max_explorations = 4096;
  /// Probes each region may spend; 0 = unlimited. Exceeding it does not
  /// abort the session (a partial map with a hole would poison the merge) —
  /// it flags the region and the result so operators can re-shard.
  std::uint64_t region_probe_budget = 0;

  simnet::CollisionModel collision = simnet::CollisionModel::kCutThrough;
  /// Optional live-fault context: schedule sampled at each region's
  /// elapsed time, from zero (not owned; may be null).
  const simnet::FaultSchedule* faults = nullptr;

  /// Fault injection for tests only: the region with this index throws
  /// mid-session, proving the pool propagates instead of deadlocking.
  int sabotage_region_throw = -1;
  /// Plumbed into every region's MapperConfig::sabotage_skip_merges, so the
  /// fuzzer's sabotage mode can prove the federated oracle catches a broken
  /// region mapper.
  bool sabotage_skip_merges = false;
};

/// Per-region session outcome.
struct RegionOutcome {
  std::string name;
  topo::NodeId mapper = topo::kInvalidNode;
  int depth = 0;
  std::size_t switches_assigned = 0;
  /// Nodes in the region's partial map (its ball, cored).
  std::size_t nodes_mapped = 0;
  std::uint64_t probes = 0;
  common::SimTime elapsed{};
  bool budget_exceeded = false;
};

struct FederatedResult {
  /// The merged model (host names global; switch ports correct up to the
  /// per-switch offset, as always).
  topo::Topology map;
  /// UP*/DOWN* routes recomputed on the merged model (nullopt when the
  /// route phase could not run — see certified/uncertified_reasons).
  std::optional<routing::RoutingResult> routes;
  /// The static analyzer's full verdict over map + routes.
  analysis::AnalysisResult verdict;
  /// True only when the merged model is connected, routable, free of
  /// ERROR-level diagnostics, UP*/DOWN*-legal and deadlock-free, and both
  /// certificates survive their independent re-checkers. An uncertified
  /// merged map must never be published.
  bool certified = false;
  std::vector<std::string> uncertified_reasons;

  /// max(per-region elapsed) + merge charge.
  common::SimTime elapsed{};
  /// Total probes across all regions (network load).
  std::uint64_t total_probes = 0;
  /// Any region overran its probe budget.
  bool budget_exceeded = false;

  std::vector<RegionOutcome> regions;
  mapper::PartialMergeStats merge;
  /// Switches the partitioner placed on a region boundary.
  std::size_t boundary_switches = 0;
  /// Cross-region identifications the boundary resolver performed (model
  /// vertex fusions during the merge cascade).
  std::size_t boundary_conflicts = 0;
};

class FederatedMapper {
 public:
  /// Plans the regions eagerly (throws std::runtime_error on an
  /// unsatisfiable spec). `fabric` must outlive the mapper; it is shared
  /// read-only across the region threads.
  FederatedMapper(const topo::Topology& fabric, FederationConfig config);

  [[nodiscard]] const RegionPlan& plan() const { return plan_; }

  /// Runs every region session concurrently, resolves boundaries, recomputes
  /// routes, and certifies the merged model. A region session that throws
  /// propagates (first exception wins) after every other region finished —
  /// never a deadlock, never a half-merged result.
  FederatedResult run();

 private:
  const topo::Topology* fabric_;
  FederationConfig config_;
  RegionPlan plan_;
};

}  // namespace sanmap::federation
