// The lazy depth cap (MapperConfig::exact_search_depth): a mapper given the
// one-BFS floor topo::search_depth_floor and a callback for the exact
// §3.1.4 bound Q + D + 1 must run the very session an eager run at the exact
// bound runs — probe counters, virtual time, explorations, merges and the
// map's text, byte for byte — and call the callback at most once, and only
// when its exploration reaches past the floor.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "mapper/berkeley_mapper.hpp"
#include "mapper/incremental.hpp"
#include "mapper/labeled_mapper.hpp"
#include "mapper/randomized_mapper.hpp"
#include "probe/probe_engine.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/serialize.hpp"
#include "verify/scenario_case.hpp"

namespace sanmap::mapper {
namespace {

namespace fs = std::filesystem;
using simnet::CollisionModel;
using topo::NodeId;
using topo::Topology;

/// The checked-in CLI fixture: a host-free 4x4 mesh behind a switch-bridge,
/// mapped from h0 (floor 12, exact 13).
Topology mesh_tail() {
  std::ifstream in(std::string(SANMAP_FIXTURE_DIR) + "/mesh-tail.topo");
  return topo::read_topology(in);
}

/// The lower bound and the callback the CLI passes; `calls` counts solves.
MapperConfig lazy_config(const Topology& t, NodeId mapper, int& calls) {
  MapperConfig config;
  config.search_depth = topo::search_depth_floor(t, mapper);
  config.exact_search_depth = [&t, mapper, &calls] {
    ++calls;
    return topo::search_depth(t, mapper);
  };
  return config;
}

MapperConfig eager_config(const Topology& t, NodeId mapper, int extra = 0) {
  MapperConfig config;
  config.search_depth = topo::search_depth(t, mapper) + extra;
  return config;
}

template <class Mapper>
MapResult run(const Topology& t, NodeId mapper, CollisionModel collision,
              const MapperConfig& config) {
  simnet::Network net(t, collision);
  probe::ProbeEngine engine(net, mapper);
  return Mapper(engine, config).run();
}

void expect_same_session(const MapResult& lazy, const MapResult& eager,
                         const std::string& label) {
  EXPECT_TRUE(lazy.probes == eager.probes)
      << label << ": " << lazy.probes.total() << " probes vs "
      << eager.probes.total();
  EXPECT_EQ(lazy.elapsed.to_ns(), eager.elapsed.to_ns()) << label;
  EXPECT_EQ(lazy.explorations, eager.explorations) << label;
  EXPECT_EQ(lazy.merges, eager.merges) << label;
  EXPECT_EQ(topo::to_text(lazy.map), topo::to_text(eager.map)) << label;
}

TEST(LazyDepth, BerkeleyMatchesEagerOnEveryCorpusCaseAndCollisionModel) {
  int sessions = 0;
  for (const auto& entry : fs::directory_iterator(SANMAP_CORPUS_DIR)) {
    if (entry.path().extension() != ".sancase") {
      continue;
    }
    const verify::ScenarioCase c =
        verify::read_case_file(entry.path().string());
    const NodeId mapper = c.mapper_node();
    // As `sanmap map`: the mapper's component, bounded and mapped there.
    const Topology t = topo::component_of(c.network, mapper);
    ASSERT_TRUE(t.num_switches() >= 1 && t.num_hosts() >= 2) << c.name;
    for (const CollisionModel collision :
         {CollisionModel::kCutThrough, CollisionModel::kCircuit,
          CollisionModel::kPacket}) {
      const std::string label = c.name + "/" + simnet::to_string(collision);
      int calls = 0;
      const MapResult lazy = run<BerkeleyMapper>(
          t, mapper, collision, lazy_config(t, mapper, calls));
      EXPECT_LE(calls, 1) << label;
      expect_same_session(
          lazy,
          run<BerkeleyMapper>(t, mapper, collision, eager_config(t, mapper)),
          label);
      ++sessions;
    }
  }
  EXPECT_EQ(sessions, 15 * 3);
}

TEST(LazyDepth, FatTreeNeverSolvesTheExactBound) {
  topo::MegaFatTreeOptions options;
  options.leaf_switches = 64;
  const Topology t = topo::mega_fat_tree(options);
  const NodeId mapper = t.hosts().front();
  int calls = 0;
  const MapResult lazy =
      run<BerkeleyMapper>(t, mapper, CollisionModel::kCutThrough,
                          lazy_config(t, mapper, calls));
  EXPECT_EQ(calls, 0);
  expect_same_session(lazy,
                      run<BerkeleyMapper>(t, mapper,
                                          CollisionModel::kCutThrough,
                                          eager_config(t, mapper)),
                      "megafattree-64");
}

TEST(LazyDepth, MeshTailSolvesOnceAndOvershootIsNotFree) {
  const Topology t = mesh_tail();
  const NodeId mapper = *t.find_host("h0");
  ASSERT_EQ(topo::search_depth_floor(t, mapper), 12);
  ASSERT_EQ(topo::search_depth(t, mapper), 13);
  int calls = 0;
  const MapResult lazy =
      run<BerkeleyMapper>(t, mapper, CollisionModel::kCutThrough,
                          lazy_config(t, mapper, calls));
  EXPECT_EQ(calls, 1);
  const MapResult eager = run<BerkeleyMapper>(
      t, mapper, CollisionModel::kCutThrough, eager_config(t, mapper));
  expect_same_session(lazy, eager, "mesh-tail");
  // The host-free mesh is explored to whatever the cap allows, so a cap
  // above Q + D + 1 sends more probes: the lazy cap must resolve to the
  // exact bound, not to any upper bound of it.
  const MapResult overshoot =
      run<BerkeleyMapper>(t, mapper, CollisionModel::kCutThrough,
                          eager_config(t, mapper, /*extra=*/2));
  EXPECT_GT(overshoot.probes.total(), eager.probes.total());
}

TEST(LazyDepth, LabeledMapperMatchesEager) {
  const Topology t = topo::mesh(3, 2, 1);
  const NodeId mapper = t.hosts().front();
  int calls = 0;
  const MapResult lazy = run<LabeledMapper>(
      t, mapper, CollisionModel::kCutThrough, lazy_config(t, mapper, calls));
  // The proof form keeps every walk, so its FIFO reaches past the floor.
  EXPECT_EQ(calls, 1);
  expect_same_session(lazy,
                      run<LabeledMapper>(t, mapper,
                                         CollisionModel::kCutThrough,
                                         eager_config(t, mapper)),
                      "labeled mesh-3x2");
}

TEST(LazyDepth, IncrementalRepairMatchesEager) {
  // The previous map is the mesh tail's core; the sweep finds the bridge's
  // far end on a recorded-free port and the repair explores the mesh.
  const Topology t = mesh_tail();
  const NodeId mapper = *t.find_host("h0");
  const Topology previous =
      run<BerkeleyMapper>(t, mapper, CollisionModel::kCutThrough,
                          eager_config(t, mapper))
          .map;
  const auto incremental = [&](const MapperConfig& base) {
    simnet::Network net(t);
    probe::ProbeEngine engine(net, mapper);
    IncrementalConfig config;
    config.base = base;
    return IncrementalMapper(engine, previous, config).run();
  };
  int calls = 0;
  const IncrementalResult lazy = incremental(lazy_config(t, mapper, calls));
  const IncrementalResult eager = incremental(eager_config(t, mapper));
  EXPECT_EQ(calls, 1);
  EXPECT_FALSE(lazy.unchanged);
  EXPECT_TRUE(lazy.probes == eager.probes);
  EXPECT_EQ(lazy.verification_probes, eager.verification_probes);
  EXPECT_EQ(lazy.findings.size(), eager.findings.size());
  EXPECT_EQ(lazy.elapsed.to_ns(), eager.elapsed.to_ns());
  EXPECT_EQ(topo::to_text(lazy.map), topo::to_text(eager.map));
}

TEST(LazyDepth, RandomizedMapperResolvesBeforeItsFirstWildProbe) {
  // Wild probes are strings of the full depth, so the cap is resolved
  // before the session's first probe, not when the explorer needs it.
  const Topology t = mesh_tail();
  const NodeId mapper = *t.find_host("h0");
  int calls = 0;
  std::uint64_t probes_at_solve = 0;
  const auto randomized = [&](bool lazy) {
    simnet::HardwareExtensions ext;
    ext.hosts_answer_early_hits = true;
    simnet::Network net(t, CollisionModel::kCutThrough, simnet::CostModel{},
                        simnet::FaultModel{}, 1, ext);
    probe::ProbeEngine engine(net, mapper);
    RandomizedConfig config;
    config.base = eager_config(t, mapper);
    if (lazy) {
      config.base.search_depth = topo::search_depth_floor(t, mapper);
      config.base.exact_search_depth = [&] {
        ++calls;
        probes_at_solve = engine.counters().total();
        return topo::search_depth(t, mapper);
      };
    }
    config.wild_probes = 24;
    return RandomizedMapper(engine, config).run();
  };
  const MapResult lazy = randomized(true);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(probes_at_solve, 0u);
  const MapResult eager = randomized(false);
  EXPECT_GT(eager.probes.wild_hits, 0u);
  expect_same_session(lazy, eager, "randomized mesh-tail");
}

}  // namespace
}  // namespace sanmap::mapper
