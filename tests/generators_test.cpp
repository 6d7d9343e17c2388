// Tests for topology generators, including the exact Figure 3 inventory of
// the NOW subclusters.
#include <gtest/gtest.h>

#include <set>

#include "common/rng.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"

namespace sanmap::topo {
namespace {

struct SubclusterCase {
  Subcluster which;
  const char* name;
};

class NowSubclusterTest : public ::testing::TestWithParam<SubclusterCase> {};

TEST_P(NowSubclusterTest, MatchesFigure3Inventory) {
  const auto& param = GetParam();
  const Topology t = now_subcluster(param.which, param.name);
  const Inventory inv = now_inventory(param.which);
  EXPECT_EQ(t.num_hosts(), inv.interfaces) << "interfaces";
  EXPECT_EQ(t.num_switches(), inv.switches) << "switches";
  EXPECT_EQ(t.num_wires(), inv.links) << "links";
}

TEST_P(NowSubclusterTest, IsConnected) {
  EXPECT_TRUE(connected(now_subcluster(GetParam().which, GetParam().name)));
}

TEST_P(NowSubclusterTest, EveryHostHasExactlyOneLink) {
  const Topology t = now_subcluster(GetParam().which, GetParam().name);
  for (const NodeId h : t.hosts()) {
    EXPECT_EQ(t.degree(h), 1) << t.name(h);
    const auto far = t.peer(h, 0);
    ASSERT_TRUE(far.has_value());
    EXPECT_TRUE(t.is_switch(far->node));
  }
}

TEST_P(NowSubclusterTest, NoSwitchExceedsPortBudget) {
  const Topology t = now_subcluster(GetParam().which, GetParam().name);
  for (const NodeId s : t.switches()) {
    EXPECT_LE(t.degree(s), 8);
  }
}

TEST_P(NowSubclusterTest, CoreIsWholeNetwork) {
  // The NOW has no host-free regions behind switch-bridges.
  const Topology t = now_subcluster(GetParam().which, GetParam().name);
  const auto f = separated_set(t);
  EXPECT_TRUE(std::none_of(f.begin(), f.end(), [](bool b) { return b; }));
}

TEST_P(NowSubclusterTest, HasUtilityHostOnRoot) {
  const Topology t = now_subcluster(GetParam().which, GetParam().name);
  const auto util = t.find_host(std::string(GetParam().name) + ".util");
  ASSERT_TRUE(util.has_value());
  const auto root = t.peer(*util, 0);
  ASSERT_TRUE(root.has_value());
  EXPECT_NE(t.name(root->node).find("root"), std::string::npos);
}

INSTANTIATE_TEST_SUITE_P(
    AllSubclusters, NowSubclusterTest,
    ::testing::Values(SubclusterCase{Subcluster::kA, "A"},
                      SubclusterCase{Subcluster::kB, "B"},
                      SubclusterCase{Subcluster::kC, "C"}),
    [](const auto& param_info) { return param_info.param.name; });

TEST(NowCluster, FullSystemHeadlineCounts) {
  // Abstract: "100 nodes, 40 switches, and 193 links". Our composition keeps
  // each subcluster at its published link count and adds 4 explicit trunk
  // cables (the paper attributed trunks to subcluster budgets; see
  // generators.hpp).
  const Topology t = now_cluster();
  EXPECT_EQ(t.num_hosts(), 100u);
  EXPECT_EQ(t.num_switches(), 40u);
  EXPECT_EQ(t.num_wires(), 193u + 4u);
  EXPECT_TRUE(connected(t));
}

TEST(NowCluster, SubclusterCIrregularity) {
  // "The middle switch in the first level only has two links, instead of
  // three, to other switches."
  const Topology t = now_subcluster(Subcluster::kC, "C");
  int two_uplink_leaves = 0;
  for (const NodeId s : t.switches()) {
    if (t.name(s).find("leaf") == std::string::npos) {
      continue;
    }
    int uplinks = 0;
    for (const PortRef& nb : t.neighbors(s)) {
      if (t.is_switch(nb.node)) {
        ++uplinks;
      }
    }
    if (uplinks == 2) {
      ++two_uplink_leaves;
    } else {
      EXPECT_EQ(uplinks, 3);
    }
  }
  EXPECT_EQ(two_uplink_leaves, 1);
}

TEST(NowCluster, GrowthSequence) {
  const Topology c = now_system(NowSystem::kC);
  const Topology ca = now_system(NowSystem::kCA);
  const Topology cab = now_system(NowSystem::kCAB);
  EXPECT_EQ(c.num_hosts(), 36u);
  EXPECT_EQ(ca.num_hosts(), 70u);
  EXPECT_EQ(cab.num_hosts(), 100u);
  EXPECT_EQ(c.num_switches(), 13u);
  EXPECT_EQ(ca.num_switches(), 26u);
  EXPECT_EQ(cab.num_switches(), 40u);
  EXPECT_TRUE(connected(ca));
  EXPECT_TRUE(connected(cab));
}

TEST(NowCluster, ExtraRootsIncreaseSwitchCount) {
  NowOptions options;
  options.extra_roots = 2;
  const Topology t = now_cluster(options);
  EXPECT_EQ(t.num_switches(), 42u);
  EXPECT_TRUE(connected(t));
}

TEST(NowCluster, SystemNames) {
  EXPECT_STREQ(to_string(NowSystem::kC), "C");
  EXPECT_STREQ(to_string(NowSystem::kCA), "C+A");
  EXPECT_STREQ(to_string(NowSystem::kCAB), "C+A+B");
}

TEST(Hypercube, StructureAndDegrees) {
  const Topology t = hypercube(3, 2);
  EXPECT_EQ(t.num_switches(), 8u);
  EXPECT_EQ(t.num_hosts(), 16u);
  EXPECT_EQ(t.num_wires(), 12u + 16u);
  EXPECT_TRUE(connected(t));
  for (const NodeId s : t.switches()) {
    EXPECT_EQ(t.degree(s), 5);  // 3 cube links + 2 hosts
  }
  EXPECT_EQ(diameter(t), 3 + 2);  // cube diameter + two host hops
}

TEST(Hypercube, RejectsOverSubscription) {
  EXPECT_THROW(hypercube(4, 5), common::CheckFailure);
  EXPECT_THROW(hypercube(8, 0), common::CheckFailure);
}

TEST(Mesh, CountsAndDiameter) {
  const Topology t = mesh(4, 3, 1);
  EXPECT_EQ(t.num_switches(), 12u);
  EXPECT_EQ(t.num_hosts(), 12u);
  // Grid links: 3*3 + 4*2 = 17.
  EXPECT_EQ(t.num_wires(), 17u + 12u);
  EXPECT_EQ(diameter(t), (3 + 2) + 2);
}

TEST(Torus, WrapLinksPresent) {
  const Topology t = torus(4, 4, 0);
  EXPECT_EQ(t.num_wires(), 32u);  // 2 links per switch-pair dimension
  EXPECT_EQ(diameter(t), 4);      // 2 + 2
  EXPECT_TRUE(bridges(t).empty());
}

TEST(Torus, RejectsDegenerateWrap) {
  EXPECT_THROW(torus(2, 4, 0), common::CheckFailure);
}

TEST(Ring, CountsAndNoBridges) {
  const Topology t = ring(6, 2);
  EXPECT_EQ(t.num_switches(), 6u);
  EXPECT_EQ(t.num_hosts(), 12u);
  const auto b = bridges(t);
  // Only host links are bridges.
  EXPECT_EQ(b.size(), 12u);
}

TEST(Star, Structure) {
  const Topology t = star(5, 3);
  EXPECT_EQ(t.num_switches(), 6u);
  EXPECT_EQ(t.num_hosts(), 15u);
  EXPECT_TRUE(connected(t));
}

TEST(FatTree, DefaultBuilds) {
  const Topology t = fat_tree({});
  EXPECT_EQ(t.num_switches(), 8u + 4u + 4u);
  EXPECT_EQ(t.num_hosts(), 32u);
  EXPECT_TRUE(connected(t));
}

TEST(MultiPod, DefaultBuilds) {
  const Topology t = multi_pod({});
  // 3 pods x (2 roots + 3 leaves) + 2 spines.
  EXPECT_EQ(t.num_switches(), 3u * 5u + 2u);
  EXPECT_EQ(t.num_hosts(), 3u * 3u * 2u);
  EXPECT_TRUE(connected(t));
}

TEST(MultiPod, SpineIsHostFreeAndSurvivesCoring) {
  const Topology t = multi_pod({});
  for (const topo::NodeId s : t.switches()) {
    if (t.name(s).rfind("spine", 0) == 0) {
      for (const topo::PortRef& ref : t.neighbors(s)) {
        EXPECT_TRUE(t.is_switch(ref.node));
      }
    }
  }
  // Every pod root reaches every spine, so the spine layer is multiply
  // connected and stays in the mappable core.
  EXPECT_EQ(core(t).num_switches(), t.num_switches());
}

TEST(MultiPod, EightPodsFitThePortBudget) {
  MultiPodOptions options;
  options.pods = 8;
  options.pod_roots = 1;
  options.leaf_switches_per_pod = 4;
  options.uplinks = 1;
  const Topology t = multi_pod(options);
  EXPECT_TRUE(connected(t));
  EXPECT_EQ(t.num_switches(), 8u * 5u + 2u);
}

TEST(MultiPod, RejectsSpinePortExhaustion) {
  MultiPodOptions options;
  options.pods = 5;
  options.pod_roots = 2;  // 10 spine wires > 8 ports
  EXPECT_THROW(multi_pod(options), common::CheckFailure);
}

TEST(MultiPod, SpineUplinksScalesPastEightPodRoots) {
  // The legacy dense wiring caps pods * pod_roots at 8; windowed spine
  // uplinks lift that while keeping the host-free spine layer in the core.
  MultiPodOptions options;
  options.pods = 24;
  options.pod_roots = 2;
  options.spines = 16;
  options.spine_uplinks = 2;
  const Topology t = multi_pod(options);
  EXPECT_EQ(t.num_switches(), 24u * 5u + 16u);
  EXPECT_EQ(t.num_hosts(), 24u * 3u * 2u);
  EXPECT_TRUE(connected(t));
  for (const NodeId s : t.switches()) {
    EXPECT_LE(t.degree(s), 8) << t.name(s);
  }
  // Every spine keeps >= 2 root links, so coring sheds nothing.
  EXPECT_EQ(core(t).num_switches(), t.num_switches());
}

TEST(MultiPod, RejectsBadSpineUplinkConfigs) {
  MultiPodOptions one_link;
  one_link.spines = 4;
  one_link.spine_uplinks = 1;  // singly-attached spines would be cored away
  EXPECT_THROW(multi_pod(one_link), common::CheckFailure);

  MultiPodOptions starved;
  starved.pods = 2;
  starved.pod_roots = 1;
  starved.spines = 8;  // 2 * 2 root links < 2 * 8 spine ports needed
  starved.spine_uplinks = 2;
  EXPECT_THROW(multi_pod(starved), common::CheckFailure);
}

TEST(MegaFatTree, ExactCountsAndBudgets) {
  MegaFatTreeOptions options;
  options.levels = 4;
  options.leaf_switches = 16;
  options.taper = 2;
  options.hosts_per_leaf = 2;
  options.uplinks = 2;
  const Topology t = mega_fat_tree(options);
  // Tapered widths: 16, 8, 4, 2.
  EXPECT_EQ(t.num_switches(), 16u + 8u + 4u + 2u);
  EXPECT_EQ(t.num_hosts(), 16u * 2u);  // exact host count
  // Wires: hosts + 2 uplinks per non-top switch.
  EXPECT_EQ(t.num_wires(), 32u + (16u + 8u + 4u) * 2u);
  EXPECT_TRUE(connected(t));
  for (const NodeId s : t.switches()) {
    EXPECT_LE(t.degree(s), 8) << t.name(s);
  }
  // Host-free upper levels are multiply connected: nothing cored away.
  EXPECT_EQ(core(t).num_switches(), t.num_switches());
}

TEST(MegaFatTree, ThousandSwitchFabricConnected) {
  MegaFatTreeOptions options;
  options.leaf_switches = 600;  // widths 600, 300, 150, 75 -> 1125 switches
  const Topology t = mega_fat_tree(options);
  EXPECT_EQ(t.num_switches(), 600u + 300u + 150u + 75u);
  EXPECT_EQ(t.num_hosts(), 1200u);
  EXPECT_TRUE(connected(t));
}

TEST(MegaFatTree, RejectsPortOverSubscription) {
  MegaFatTreeOptions options;
  options.taper = 3;
  options.uplinks = 3;  // (taper + 1) * uplinks = 12 > 8 mid-level ports
  EXPECT_THROW(mega_fat_tree(options), common::CheckFailure);

  MegaFatTreeOptions host_heavy;
  host_heavy.hosts_per_leaf = 7;  // 7 hosts + 2 uplinks > 8 leaf ports
  EXPECT_THROW(mega_fat_tree(host_heavy), common::CheckFailure);
}

TEST(Dragonflyish, ConnectedWithExactHostCounts) {
  DragonflyishOptions options;
  common::Rng rng(11);
  const Topology t = dragonfly_ish(options, rng);
  EXPECT_EQ(t.num_switches(),
            static_cast<std::size_t>(options.groups *
                                     options.switches_per_group));
  EXPECT_EQ(t.num_hosts(), static_cast<std::size_t>(options.groups *
                                                    options.hosts_per_group));
  EXPECT_TRUE(connected(t));
  for (const NodeId s : t.switches()) {
    EXPECT_LE(t.degree(s), 8) << t.name(s);
  }
}

TEST(Dragonflyish, SameSeedIdenticalTopology) {
  DragonflyishOptions options;
  common::Rng rng1(42);
  common::Rng rng2(42);
  const Topology a = dragonfly_ish(options, rng1);
  const Topology b = dragonfly_ish(options, rng2);
  EXPECT_TRUE(a.structurally_equal(b));
}

TEST(Dragonflyish, DistinctSeedsGiveNonIsomorphicCores) {
  DragonflyishOptions options;
  common::Rng rng1(1);
  common::Rng rng2(2);
  const Topology a = dragonfly_ish(options, rng1);
  const Topology b = dragonfly_ish(options, rng2);
  // The seeded chords land on different switches, so even the mappable
  // cores differ structurally.
  EXPECT_FALSE(core(a).structurally_equal(core(b)));
}

TEST(Dragonflyish, SkeletonConnectedEvenWithoutExtras) {
  DragonflyishOptions options;
  options.local_chords = 0;
  options.global_extras = 0;
  common::Rng rng(3);
  const Topology t = dragonfly_ish(options, rng);
  EXPECT_TRUE(connected(t));
  EXPECT_EQ(core(t).num_switches(), t.num_switches());
}

TEST(RandomIrregular, ConnectedAndDeterministic) {
  common::Rng rng1(99);
  common::Rng rng2(99);
  const Topology a = random_irregular(10, 12, 5, rng1);
  const Topology b = random_irregular(10, 12, 5, rng2);
  EXPECT_TRUE(connected(a));
  EXPECT_EQ(a.num_switches(), 10u);
  EXPECT_EQ(a.num_hosts(), 12u);
  EXPECT_GE(a.num_wires(), 10u + 12u + 4u);  // tree + hosts + most extras
  EXPECT_TRUE(a.structurally_equal(b));  // same seed, same network
}

TEST(RandomIrregular, DifferentSeedsDiffer) {
  common::Rng rng1(1);
  common::Rng rng2(2);
  const Topology a = random_irregular(10, 12, 5, rng1);
  const Topology b = random_irregular(10, 12, 5, rng2);
  EXPECT_FALSE(a.structurally_equal(b));
}

TEST(RandomIrregular, SingleSwitchManyHosts) {
  common::Rng rng(5);
  const Topology t = random_irregular(1, 8, 0, rng);
  EXPECT_EQ(t.num_wires(), 8u);
}

TEST(WithSwitchTail, ProducesSwitchBridge) {
  common::Rng rng(17);
  const Topology t = with_switch_tail(6, 6, 2, rng);
  EXPECT_GE(switch_bridges(t).size(), 2u);
  EXPECT_TRUE(connected(t));
}

}  // namespace
}  // namespace sanmap::topo
