// Tests for the sharded federated mapping subsystem (src/federation):
// spec parsing, fabric partitioning, and the full partition → concurrent
// region sessions → boundary resolution → certification pipeline.
#include <gtest/gtest.h>

#include <stdexcept>

#include "federation/federated_mapper.hpp"
#include "federation/partition.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/isomorphism.hpp"

namespace sanmap::federation {
namespace {

using topo::NodeId;
using topo::Topology;

TEST(FederationSpec, ParsesAutoMode) {
  const FederationSpec spec = parse_federation_spec("auto:4");
  EXPECT_TRUE(spec.auto_mode());
  EXPECT_EQ(spec.auto_regions, 4);
  EXPECT_TRUE(spec.anchor_host.empty());
}

TEST(FederationSpec, ParsesAutoModeWithAnchor) {
  const FederationSpec spec = parse_federation_spec("auto:3@P1.h0");
  EXPECT_TRUE(spec.auto_mode());
  EXPECT_EQ(spec.auto_regions, 3);
  EXPECT_EQ(spec.anchor_host, "P1.h0");
}

TEST(FederationSpec, ParsesExplicitSeedsWithOptionalNames) {
  const FederationSpec spec =
      parse_federation_spec("podA=P0.h0,P1.h0,podC=P2.h1");
  ASSERT_EQ(spec.regions.size(), 3u);
  EXPECT_FALSE(spec.auto_mode());
  EXPECT_EQ(spec.regions[0].name, "podA");
  EXPECT_EQ(spec.regions[0].mapper_host, "P0.h0");
  EXPECT_TRUE(spec.regions[1].name.empty());
  EXPECT_EQ(spec.regions[1].mapper_host, "P1.h0");
  EXPECT_EQ(spec.regions[2].name, "podC");
  EXPECT_EQ(spec.regions[2].mapper_host, "P2.h1");
}

TEST(FederationSpec, RejectsMalformedSpecs) {
  EXPECT_THROW((void)parse_federation_spec(""), std::runtime_error);
  EXPECT_THROW((void)parse_federation_spec("auto"), std::runtime_error);
  EXPECT_THROW((void)parse_federation_spec("auto:zero"), std::runtime_error);
  EXPECT_THROW((void)parse_federation_spec("auto:0"), std::runtime_error);
  EXPECT_THROW((void)parse_federation_spec("a=h0,,b=h1"), std::runtime_error);
  EXPECT_THROW((void)parse_federation_spec("name="), std::runtime_error);
}

TEST(Partition, CoversEverySwitchOfTheComponentExactlyOnce) {
  const Topology t = topo::multi_pod({});
  FederationSpec spec;
  spec.auto_regions = 3;
  const RegionPlan plan = partition_fabric(t, spec);
  ASSERT_EQ(plan.regions.size(), 3u);
  EXPECT_EQ(plan.unassigned_switches, 0u);
  std::size_t assigned = 0;
  for (const Region& region : plan.regions) {
    assigned += region.switches.size();
    EXPECT_FALSE(region.name.empty());
    EXPECT_TRUE(t.is_host(region.mapper));
  }
  EXPECT_EQ(assigned, t.num_switches());
  // Pods meet at the spine, so boundaries must exist.
  EXPECT_GT(plan.boundary_switches, 0u);
}

TEST(Partition, IsDeterministic) {
  const Topology t = topo::multi_pod({});
  FederationSpec spec;
  spec.auto_regions = 4;
  const RegionPlan a = partition_fabric(t, spec);
  const RegionPlan b = partition_fabric(t, spec);
  ASSERT_EQ(a.regions.size(), b.regions.size());
  for (std::size_t r = 0; r < a.regions.size(); ++r) {
    EXPECT_EQ(a.regions[r].mapper, b.regions[r].mapper);
    EXPECT_EQ(a.regions[r].switches, b.regions[r].switches);
    EXPECT_EQ(a.regions[r].depth, b.regions[r].depth);
  }
}

TEST(Partition, DepthCoversAssignedSwitchesAndTheirHostAnchors) {
  // Every assigned switch must fit in its region's ball together with its
  // nearest host — otherwise the local session cores it out and the merged
  // map has a hole. Spot-check the invariant on the multi-pod spine (the
  // host-free switches two hops from any host).
  const Topology t = topo::multi_pod({});
  FederationSpec spec;
  spec.auto_regions = 3;
  PartitionOptions options;
  options.overlap_margin = 0;
  const RegionPlan plan = partition_fabric(t, spec, options);
  for (const Region& region : plan.regions) {
    const std::vector<int> dist = topo::bfs_distances(t, region.mapper);
    for (const NodeId s : region.switches) {
      EXPECT_GE(region.depth, dist[s]) << t.name(s);
    }
  }
}

TEST(Partition, AutoModeClampsRegionCountToHostCount) {
  const Topology t = topo::star(3, 2);  // 6 hosts
  FederationSpec spec;
  spec.auto_regions = 100;
  const RegionPlan plan = partition_fabric(t, spec);
  EXPECT_EQ(plan.regions.size(), t.num_hosts());
}

TEST(Partition, RejectsUnknownHostsAndDuplicateSeeds) {
  const Topology t = topo::star(3, 2);
  {
    FederationSpec spec;
    spec.regions.push_back({"", "nonesuch"});
    EXPECT_THROW((void)partition_fabric(t, spec), std::runtime_error);
  }
  {
    FederationSpec spec;
    spec.regions.push_back({"a", t.name(t.hosts().front())});
    spec.regions.push_back({"b", t.name(t.hosts().front())});
    EXPECT_THROW((void)partition_fabric(t, spec), std::runtime_error);
  }
}

TEST(Partition, RejectsSeedsInDisconnectedComponents) {
  // Two disjoint stars in one topology file.
  Topology t = topo::star(3, 2);
  const NodeId island_switch = t.add_switch("island");
  const NodeId island_host = t.add_host("island-host");
  t.connect_any(island_host, island_switch);
  FederationSpec spec;
  spec.regions.push_back({"main", t.name(t.hosts().front())});
  spec.regions.push_back({"island", "island-host"});
  EXPECT_THROW((void)partition_fabric(t, spec), std::runtime_error);
}

TEST(FederatedMapper, MergedMapMatchesMonolithicTruthOnMultiPod) {
  const Topology t = topo::multi_pod({});
  FederationConfig config;
  config.spec.auto_regions = 3;
  FederatedMapper federated(t, config);
  EXPECT_EQ(federated.plan().regions.size(), 3u);
  const FederatedResult result = federated.run();
  EXPECT_TRUE(topo::isomorphic(result.map, topo::core(t)))
      << result.map.num_hosts() << "h/" << result.map.num_switches() << "s/"
      << result.map.num_wires() << "w";
  EXPECT_TRUE(result.certified) << (result.uncertified_reasons.empty()
                                        ? ""
                                        : result.uncertified_reasons.front());
  EXPECT_TRUE(result.routes.has_value());
  EXPECT_GT(result.boundary_switches, 0u);
  EXPECT_GT(result.boundary_conflicts, 0u);
  ASSERT_EQ(result.regions.size(), 3u);
  for (const RegionOutcome& region : result.regions) {
    EXPECT_GT(region.probes, 0u);
    EXPECT_GT(region.nodes_mapped, 0u);
    EXPECT_FALSE(region.budget_exceeded);
  }
}

TEST(FederatedMapper, ExplicitSeedsOnTheNowCluster) {
  const Topology t = topo::now_cluster();
  FederationConfig config;
  config.spec = parse_federation_spec("a=A.util,b=B.util,c=C.util");
  const FederatedResult result = FederatedMapper(t, config).run();
  EXPECT_TRUE(topo::isomorphic(result.map, topo::core(t)));
  EXPECT_TRUE(result.certified);
  EXPECT_EQ(result.regions[0].name, "a");
  EXPECT_EQ(result.regions[1].name, "b");
  EXPECT_EQ(result.regions[2].name, "c");
}

TEST(FederatedMapper, ElapsedIsMaxOverRegionsPlusMergeCharge) {
  const Topology t = topo::multi_pod({});
  FederationConfig config;
  config.spec.auto_regions = 4;
  const FederatedResult result = FederatedMapper(t, config).run();
  common::SimTime slowest{};
  std::uint64_t probes = 0;
  for (const RegionOutcome& region : result.regions) {
    slowest = std::max(slowest, region.elapsed);
    probes += region.probes;
  }
  EXPECT_EQ(result.total_probes, probes);
  EXPECT_EQ(result.elapsed,
            slowest + mapper::kMergeCostPerVertex *
                          static_cast<std::int64_t>(
                              result.merge.loaded_vertices));
}

TEST(FederatedMapper, ThrowingRegionPropagatesWithoutDeadlock) {
  // One region's mapper dies mid-session: the pool must finish the other
  // regions, then rethrow — never hang, never hand back a half-merged map.
  const Topology t = topo::multi_pod({});
  FederationConfig config;
  config.spec.auto_regions = 3;
  config.sabotage_region_throw = 1;
  FederatedMapper federated(t, config);
  EXPECT_THROW((void)federated.run(), std::runtime_error);
  // The mapper object survives the failed run and can run clean afterwards.
  config.sabotage_region_throw = -1;
  const FederatedResult result = FederatedMapper(t, config).run();
  EXPECT_TRUE(result.certified);
}

TEST(FederatedMapper, ProbeBudgetOverrunIsFlaggedNotFatal) {
  const Topology t = topo::multi_pod({});
  FederationConfig config;
  config.spec.auto_regions = 2;
  config.region_probe_budget = 1;  // absurdly small: every region overruns
  const FederatedResult result = FederatedMapper(t, config).run();
  EXPECT_TRUE(result.budget_exceeded);
  for (const RegionOutcome& region : result.regions) {
    EXPECT_TRUE(region.budget_exceeded);
  }
  // The session still completes and the map is still whole: the budget is
  // an operator signal, not an abort (a partial map would poison the merge).
  EXPECT_TRUE(topo::isomorphic(result.map, topo::core(t)));
}

TEST(FederatedMapper, UnsatisfiableSpecThrowsAtConstruction) {
  const Topology t = topo::multi_pod({});
  FederationConfig config;
  config.spec.regions.push_back({"", "no-such-host"});
  EXPECT_THROW((void)FederatedMapper(t, config), std::runtime_error);
}

TEST(FederatedMapper, SingleRegionDegeneratesToMonolithic) {
  const Topology t = topo::star(4, 2);
  FederationConfig config;
  config.spec.auto_regions = 1;
  const FederatedResult result = FederatedMapper(t, config).run();
  EXPECT_TRUE(topo::isomorphic(result.map, topo::core(t)));
  EXPECT_TRUE(result.certified);
  EXPECT_EQ(result.boundary_switches, 0u);
}

}  // namespace
}  // namespace sanmap::federation
