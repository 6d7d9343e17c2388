// Tests for incremental remapping: cheap verification of an existing map
// and local repair across representative reconfiguration scenarios.
#include <gtest/gtest.h>

#include "mapper/berkeley_mapper.hpp"
#include "mapper/incremental.hpp"
#include "probe/probe_engine.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/isomorphism.hpp"

namespace sanmap::mapper {
namespace {

using topo::NodeId;
using topo::Topology;

/// Maps `network` from scratch and returns the map.
MapResult full_map(const Topology& network, NodeId mapper_host) {
  simnet::Network net(network);
  probe::ProbeEngine engine(net, mapper_host);
  MapperConfig config;
  config.search_depth = topo::search_depth(network, mapper_host);
  return BerkeleyMapper(engine, config).run();
}

/// Runs the incremental mapper against `network` using `previous`.
IncrementalResult incremental(const Topology& network, NodeId mapper_host,
                              const Topology& previous, int depth) {
  simnet::Network net(network);
  probe::ProbeEngine engine(net, mapper_host);
  IncrementalConfig config;
  config.base.search_depth = depth;
  return IncrementalMapper(engine, previous, config).run();
}

TEST(Incremental, UnchangedNetworkVerifiesCheaply) {
  const Topology network = topo::now_subcluster(topo::Subcluster::kC, "C");
  const NodeId mapper_host = *network.find_host("C.util");
  const auto baseline = full_map(network, mapper_host);
  ASSERT_TRUE(topo::isomorphic(baseline.map, network));

  const auto result =
      incremental(network, mapper_host, baseline.map,
                  topo::search_depth(network, mapper_host));
  EXPECT_TRUE(result.unchanged);
  EXPECT_TRUE(result.findings.empty());
  EXPECT_TRUE(topo::isomorphic(result.map, network));
  // The whole point: verification is several times cheaper than remapping.
  EXPECT_LT(result.verification_probes, baseline.probes.total() / 3);
  EXPECT_LT(result.elapsed, baseline.elapsed);
}

TEST(Incremental, PreviousMapMustContainTheMapper) {
  const Topology network = topo::star(3, 2);
  simnet::Network net(network);
  probe::ProbeEngine engine(net, network.hosts().front());
  Topology wrong;  // empty map
  wrong.add_host("somebody-else");
  EXPECT_THROW(IncrementalMapper(engine, wrong, {}), common::CheckFailure);
}

struct Scenario {
  const char* name;
  // Mutates the network; returns a short description.
  void (*mutate)(Topology&);
};

void add_host(Topology& t) {
  for (const NodeId s : t.switches()) {
    if (t.free_port(s)) {
      t.connect_any(t.add_host("brand-new"), s);
      return;
    }
  }
  FAIL() << "no free port";
}

void remove_host(Topology& t) {
  // Remove a non-utility host (the mapper maps from C.util).
  for (const NodeId h : t.hosts()) {
    if (t.name(h) != "C.util") {
      t.remove_node(h);
      return;
    }
  }
}

void remove_redundant_link(Topology& t) {
  for (const topo::WireId w : t.wires()) {
    const topo::Wire& wire = t.wire(w);
    if (!t.is_switch(wire.a.node) || !t.is_switch(wire.b.node)) {
      continue;
    }
    Topology probe = t;
    probe.disconnect(w);
    if (topo::connected(probe)) {
      t.disconnect(w);
      return;
    }
  }
  FAIL() << "no removable link";
}

void add_switch_with_host(Topology& t) {
  std::vector<NodeId> free;
  for (const NodeId s : t.switches()) {
    if (t.free_port(s)) {
      free.push_back(s);
    }
  }
  ASSERT_GE(free.size(), 2u);
  const NodeId sw = t.add_switch("spliced");
  t.connect_any(sw, free[0]);
  t.connect_any(sw, free[1]);
  t.connect_any(t.add_host("on-spliced"), sw);
}

void splice_switch_into_wire(Topology& t) {
  // Replace one switch-to-switch wire with a path through a new switch —
  // the change that per-port kind checks alone cannot see.
  for (const topo::WireId w : t.wires()) {
    const topo::Wire wire = t.wire(w);
    if (!t.is_switch(wire.a.node) || !t.is_switch(wire.b.node) ||
        wire.a.node == wire.b.node) {
      continue;
    }
    t.disconnect(w);
    const NodeId mid = t.add_switch("splice");
    t.connect(wire.a.node, wire.a.port, mid, 0);
    t.connect(mid, 1, wire.b.node, wire.b.port);
    // The spliced switch needs a host: a host-free degree-2 switch is in F
    // only if it separates... it does not here (it is on a cycle or not),
    // but give it a host so it is anchored either way.
    t.connect_any(t.add_host("on-splice"), mid);
    return;
  }
  FAIL() << "no spliceable wire";
}

class IncrementalScenarioTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(IncrementalScenarioTest, RepairsTheMapLocally) {
  Topology network = topo::now_subcluster(topo::Subcluster::kC, "C");
  const NodeId mapper_host = *network.find_host("C.util");
  const auto baseline = full_map(network, mapper_host);
  ASSERT_TRUE(topo::isomorphic(baseline.map, network));

  GetParam().mutate(network);
  if (::testing::Test::HasFatalFailure()) {
    return;
  }

  const int depth = topo::search_depth(network, mapper_host);
  const auto result =
      incremental(network, mapper_host, baseline.map, depth);
  EXPECT_FALSE(result.unchanged);
  EXPECT_FALSE(result.findings.empty());
  EXPECT_TRUE(topo::isomorphic(result.map, topo::core(network)))
      << GetParam().name << ": repaired map has "
      << result.map.num_hosts() << "h/" << result.map.num_switches()
      << "s/" << result.map.num_wires() << "w";

  // Repair should beat a from-scratch remap of the changed network.
  simnet::Network net(network);
  probe::ProbeEngine engine(net, mapper_host);
  MapperConfig config;
  config.search_depth = depth;
  const auto fresh = BerkeleyMapper(engine, config).run();
  EXPECT_LT(result.probes.total(), fresh.probes.total())
      << GetParam().name;
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, IncrementalScenarioTest,
    ::testing::Values(Scenario{"add_host", add_host},
                      Scenario{"remove_host", remove_host},
                      Scenario{"remove_link", remove_redundant_link},
                      Scenario{"add_switch", add_switch_with_host},
                      Scenario{"splice", splice_switch_into_wire}),
    [](const auto& param_info) {
      return std::string(param_info.param.name);
    });

TEST(Incremental, NoRepairModeJustReports) {
  Topology network = topo::star(3, 2);
  const NodeId mapper_host = network.hosts().front();
  const auto baseline = full_map(network, mapper_host);
  add_host(network);

  simnet::Network net(network);
  probe::ProbeEngine engine(net, mapper_host);
  IncrementalConfig config;
  config.base.search_depth = 8;
  config.repair = false;
  const auto result =
      IncrementalMapper(engine, baseline.map, config).run();
  EXPECT_FALSE(result.unchanged);
  EXPECT_FALSE(result.findings.empty());
  // The map is returned as-was (stale) for the caller to decide.
  EXPECT_TRUE(topo::isomorphic(result.map, baseline.map));
}

TEST(Incremental, RepeatedIncrementalCyclesTrackTheNetwork) {
  Topology network = topo::now_subcluster(topo::Subcluster::kC, "C");
  const NodeId mapper_host = *network.find_host("C.util");
  Topology map = full_map(network, mapper_host).map;
  // A sequence of changes, each followed by an incremental cycle whose
  // output seeds the next.
  int step = 0;
  const auto cycle = [&] {
    const int depth = topo::search_depth(network, mapper_host);
    const auto result = incremental(network, mapper_host, map, depth);
    ASSERT_TRUE(topo::isomorphic(result.map, topo::core(network)))
        << "step " << step;
    map = result.map;
    ++step;
  };
  cycle();  // unchanged
  add_host(network);
  cycle();
  remove_redundant_link(network);
  cycle();
  add_switch_with_host(network);
  cycle();
  remove_host(network);
  cycle();
}

}  // namespace
}  // namespace sanmap::mapper
