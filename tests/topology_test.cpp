// Unit tests for the Topology multigraph itself: construction invariants,
// port bookkeeping, dynamic reconfiguration (tombstones), compaction, and
// the generation stamp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "topology/topology.hpp"

namespace sanmap::topo {
namespace {

using sanmap::common::CheckFailure;

TEST(Topology, EmptyTopology) {
  Topology t;
  EXPECT_EQ(t.num_nodes(), 0u);
  EXPECT_EQ(t.num_wires(), 0u);
  EXPECT_TRUE(t.nodes().empty());
}

TEST(Topology, AddHostAndSwitchKinds) {
  Topology t;
  const NodeId h = t.add_host("alpha");
  const NodeId s = t.add_switch();
  EXPECT_TRUE(t.is_host(h));
  EXPECT_TRUE(t.is_switch(s));
  EXPECT_EQ(t.kind(h), NodeKind::kHost);
  EXPECT_EQ(t.kind(s), NodeKind::kSwitch);
  EXPECT_EQ(t.num_hosts(), 1u);
  EXPECT_EQ(t.num_switches(), 1u);
}

TEST(Topology, PortCounts) {
  Topology t;
  EXPECT_EQ(t.port_count(t.add_host()), kHostPorts);
  EXPECT_EQ(t.port_count(t.add_switch()), kSwitchPorts);
}

TEST(Topology, AutoNamesAreUnique) {
  Topology t;
  const NodeId a = t.add_host();
  const NodeId b = t.add_host();
  EXPECT_NE(t.name(a), t.name(b));
}

TEST(Topology, DuplicateHostNameRejected) {
  Topology t;
  t.add_host("x");
  EXPECT_THROW(t.add_host("x"), CheckFailure);
}

TEST(Topology, FindHostByName) {
  Topology t;
  const NodeId h = t.add_host("needle");
  t.add_host("other");
  EXPECT_EQ(t.find_host("needle"), h);
  EXPECT_EQ(t.find_host("missing"), std::nullopt);
}

TEST(Topology, ConnectWiresBothEnds) {
  Topology t;
  const NodeId h = t.add_host();
  const NodeId s = t.add_switch();
  const WireId w = t.connect(h, 0, s, 3);
  EXPECT_EQ(t.num_wires(), 1u);
  EXPECT_EQ(t.wire_at(h, 0), w);
  EXPECT_EQ(t.wire_at(s, 3), w);
  EXPECT_EQ(t.peer(h, 0), (PortRef{s, 3}));
  EXPECT_EQ(t.peer(s, 3), (PortRef{h, 0}));
  EXPECT_EQ(t.wire_at(s, 0), std::nullopt);
}

TEST(Topology, PortExclusivity) {
  Topology t;
  const NodeId s1 = t.add_switch();
  const NodeId s2 = t.add_switch();
  const NodeId s3 = t.add_switch();
  t.connect(s1, 0, s2, 0);
  EXPECT_THROW(t.connect(s1, 0, s3, 0), CheckFailure);
}

TEST(Topology, PortRangeValidation) {
  Topology t;
  const NodeId h = t.add_host();
  const NodeId s = t.add_switch();
  EXPECT_THROW(t.connect(h, 1, s, 0), CheckFailure);   // hosts have port 0 only
  EXPECT_THROW(t.connect(h, 0, s, 8), CheckFailure);   // switch ports 0..7
  EXPECT_THROW(t.connect(h, 0, s, -1), CheckFailure);
}

TEST(Topology, SelfLoopOnSwitchAllowed) {
  // Real Myrinet installations used loopback cables on free ports.
  Topology t;
  const NodeId s = t.add_switch();
  const WireId w = t.connect(s, 2, s, 5);
  EXPECT_EQ(t.peer(s, 2), (PortRef{s, 5}));
  EXPECT_EQ(t.peer(s, 5), (PortRef{s, 2}));
  EXPECT_EQ(t.degree(s), 2);  // self-loop counts twice
  EXPECT_EQ(t.wire(w).opposite(PortRef{s, 2}), (PortRef{s, 5}));
}

TEST(Topology, SamePortSelfLoopRejected) {
  Topology t;
  const NodeId s = t.add_switch();
  EXPECT_THROW(t.connect(s, 2, s, 2), CheckFailure);
}

TEST(Topology, ParallelWiresAllowed) {
  Topology t;
  const NodeId a = t.add_switch();
  const NodeId b = t.add_switch();
  t.connect(a, 0, b, 0);
  t.connect(a, 1, b, 1);
  EXPECT_EQ(t.num_wires(), 2u);
  EXPECT_EQ(t.degree(a), 2);
}

TEST(Topology, ConnectAnyUsesLowestFreePorts) {
  Topology t;
  const NodeId a = t.add_switch();
  const NodeId b = t.add_switch();
  t.connect(a, 0, b, 3);
  const WireId w = t.connect_any(a, b);
  const Wire& wire = t.wire(w);
  EXPECT_EQ(wire.a.port, 1);  // lowest free on a
  EXPECT_EQ(wire.b.port, 0);  // lowest free on b
}

TEST(Topology, ConnectAnySelfLoopPicksTwoPorts) {
  Topology t;
  const NodeId s = t.add_switch();
  const WireId w = t.connect_any(s, s);
  const Wire& wire = t.wire(w);
  EXPECT_EQ(wire.a.node, s);
  EXPECT_EQ(wire.b.node, s);
  EXPECT_NE(wire.a.port, wire.b.port);
}

TEST(Topology, ConnectAnyFullNodeThrows) {
  Topology t;
  const NodeId h1 = t.add_host();
  const NodeId h2 = t.add_host();
  const NodeId s = t.add_switch();
  t.connect(h1, 0, s, 0);
  EXPECT_THROW(t.connect_any(h1, s), CheckFailure);
  (void)h2;
}

TEST(Topology, DisconnectFreesPorts) {
  Topology t;
  const NodeId a = t.add_switch();
  const NodeId b = t.add_switch();
  const WireId w = t.connect(a, 4, b, 6);
  t.disconnect(w);
  EXPECT_EQ(t.num_wires(), 0u);
  EXPECT_FALSE(t.wire_alive(w));
  EXPECT_EQ(t.wire_at(a, 4), std::nullopt);
  // Ports are reusable.
  t.connect(a, 4, b, 6);
  EXPECT_EQ(t.num_wires(), 1u);
}

TEST(Topology, DoubleDisconnectThrows) {
  Topology t;
  const NodeId a = t.add_switch();
  const NodeId b = t.add_switch();
  const WireId w = t.connect(a, 0, b, 0);
  t.disconnect(w);
  EXPECT_THROW(t.disconnect(w), CheckFailure);
}

TEST(Topology, RemoveNodeDetachesWires) {
  Topology t;
  const NodeId h = t.add_host("gone");
  const NodeId s1 = t.add_switch();
  const NodeId s2 = t.add_switch();
  t.connect(h, 0, s1, 0);
  t.connect(s1, 1, s2, 1);
  t.remove_node(s1);
  EXPECT_FALSE(t.node_alive(s1));
  EXPECT_EQ(t.num_switches(), 1u);
  EXPECT_EQ(t.num_wires(), 0u);
  EXPECT_EQ(t.wire_at(h, 0), std::nullopt);
  EXPECT_EQ(t.degree(s2), 0);
}

TEST(Topology, RemovedHostNameIsReusable) {
  Topology t;
  const NodeId h = t.add_host("n");
  t.remove_node(h);
  EXPECT_EQ(t.find_host("n"), std::nullopt);
  const NodeId h2 = t.add_host("n");
  EXPECT_EQ(t.find_host("n"), h2);
}

TEST(Topology, AccessDeadNodeThrows) {
  Topology t;
  const NodeId s = t.add_switch();
  t.remove_node(s);
  EXPECT_THROW((void)t.kind(s), CheckFailure);
  EXPECT_THROW((void)t.neighbors(s), CheckFailure);
}

/// The message of the CheckFailure `call` throws; empty when it throws none.
template <typename Call>
std::string check_message(Call&& call) {
  try {
    call();
  } catch (const CheckFailure& failure) {
    return failure.what();
  }
  return "";
}

TEST(Topology, InlineAccessorsStillCheckDeadAndOutOfRangeIds) {
  // kind, port_count and wire_at test their ids inline and leave the
  // failure to the out-of-line checks, whose messages callers rely on.
  Topology t;
  const NodeId s = t.add_switch();
  const NodeId dead = t.add_switch();
  t.connect(s, 0, dead, 0);
  t.remove_node(dead);
  const auto beyond = static_cast<NodeId>(t.node_capacity());
  for (const NodeId bad : {dead, beyond}) {
    const std::string node_message =
        "invalid or dead node id " + std::to_string(bad);
    EXPECT_NE(check_message([&] { (void)t.kind(bad); }).find(node_message),
              std::string::npos);
    EXPECT_NE(
        check_message([&] { (void)t.port_count(bad); }).find(node_message),
        std::string::npos);
    EXPECT_NE(
        check_message([&] { (void)t.wire_at(bad, 0); }).find(node_message),
        std::string::npos);
  }
  const Port ports = t.port_count(s);
  for (const Port bad : {Port{-1}, ports}) {
    EXPECT_NE(check_message([&] { (void)t.wire_at(s, bad); })
                  .find("port " + std::to_string(bad) +
                        " out of range on node " + std::to_string(s)),
              std::string::npos);
  }
  // The fast path still answers for live ids and ports in range.
  EXPECT_EQ(t.wire_at(s, 0), std::nullopt);
  EXPECT_EQ(t.kind(s), NodeKind::kSwitch);
}

TEST(Topology, LiveListsSkipTombstones) {
  Topology t;
  const NodeId h1 = t.add_host();
  const NodeId s1 = t.add_switch();
  const NodeId h2 = t.add_host();
  t.remove_node(h1);
  EXPECT_EQ(t.nodes(), (std::vector<NodeId>{s1, h2}));
  EXPECT_EQ(t.hosts(), (std::vector<NodeId>{h2}));
  EXPECT_EQ(t.switches(), (std::vector<NodeId>{s1}));
}

TEST(Topology, NeighborsInPortOrder) {
  Topology t;
  const NodeId s = t.add_switch();
  const NodeId a = t.add_switch();
  const NodeId b = t.add_switch();
  t.connect(s, 5, a, 0);
  t.connect(s, 2, b, 7);
  const auto nb = t.neighbors(s);
  ASSERT_EQ(nb.size(), 2u);
  EXPECT_EQ(nb[0], (PortRef{b, 7}));  // port 2 first
  EXPECT_EQ(nb[1], (PortRef{a, 0}));
}

TEST(Topology, FreePortSkipsUsed) {
  Topology t;
  const NodeId s = t.add_switch();
  const NodeId o = t.add_switch();
  t.connect(s, 0, o, 0);
  t.connect(s, 1, o, 1);
  EXPECT_EQ(t.free_port(s), 2);
}

TEST(Topology, CompactedRemovesTombstonesAndPreservesStructure) {
  Topology t;
  const NodeId h1 = t.add_host("a");
  const NodeId s1 = t.add_switch("sw1");
  const NodeId s2 = t.add_switch("sw2");
  const NodeId h2 = t.add_host("b");
  t.connect(h1, 0, s1, 3);
  t.connect(s1, 4, s2, 5);
  t.connect(h2, 0, s2, 2);
  t.remove_node(h2);

  const Topology c = t.compacted();
  EXPECT_EQ(c.num_hosts(), 1u);
  EXPECT_EQ(c.num_switches(), 2u);
  EXPECT_EQ(c.num_wires(), 2u);
  EXPECT_EQ(c.node_capacity(), 3u);  // dense
  const auto h = c.find_host("a");
  ASSERT_TRUE(h.has_value());
  const auto far = c.peer(*h, 0);
  ASSERT_TRUE(far.has_value());
  EXPECT_EQ(c.name(far->node), "sw1");
  EXPECT_EQ(far->port, 3);
}

TEST(Topology, StructuralEquality) {
  Topology a;
  const NodeId ha = a.add_host("x");
  const NodeId sa = a.add_switch("s");
  a.connect(ha, 0, sa, 1);

  Topology b;
  const NodeId hb = b.add_host("x");
  const NodeId sb = b.add_switch("s");
  b.connect(hb, 0, sb, 1);
  EXPECT_TRUE(a.structurally_equal(b));

  Topology c;
  const NodeId hc = c.add_host("x");
  const NodeId sc = c.add_switch("s");
  c.connect(hc, 0, sc, 2);  // different port
  EXPECT_FALSE(a.structurally_equal(c));
}

TEST(Topology, CopySemanticsAreDeep) {
  Topology a;
  const NodeId s1 = a.add_switch();
  const NodeId s2 = a.add_switch();
  a.connect(s1, 0, s2, 0);
  Topology b = a;
  b.connect(s1, 1, s2, 1);
  EXPECT_EQ(a.num_wires(), 1u);
  EXPECT_EQ(b.num_wires(), 2u);
}

TEST(Topology, EveryMutationDrawsANewGeneration) {
  Topology t;
  std::vector<std::uint64_t> seen{t.generation()};
  const auto expect_fresh = [&](const char* what) {
    EXPECT_EQ(std::count(seen.begin(), seen.end(), t.generation()), 0)
        << what << " kept an old generation";
    seen.push_back(t.generation());
  };
  const NodeId h = t.add_host("h");
  expect_fresh("add_host");
  const NodeId s1 = t.add_switch();
  expect_fresh("add_switch");
  const NodeId s2 = t.add_switch();
  expect_fresh("add_switch");
  const WireId w = t.connect(h, 0, s1, 0);
  expect_fresh("connect");
  t.connect_any(s1, s2);
  expect_fresh("connect_any");
  t.disconnect(w);
  expect_fresh("disconnect");

  // Queries leave the stamp alone; copies carry it.
  (void)t.neighbors(s1);
  (void)t.free_port(s2);
  EXPECT_EQ(t.generation(), seen.back());
  Topology copy = t;
  EXPECT_EQ(copy.generation(), t.generation());
  Topology assigned;
  assigned = t;
  EXPECT_EQ(assigned.generation(), t.generation());

  t.remove_node(s2);
  expect_fresh("remove_node");
  // The copy's contents did not change, so neither did its stamp.
  EXPECT_EQ(copy.generation(), seen[seen.size() - 2]);

  // A rebuilt copy is new contents as far as the stamp knows.
  const Topology dense = t.compacted();
  EXPECT_EQ(std::count(seen.begin(), seen.end(), dense.generation()), 0);

  // A move carries the stamp to the destination and leaves the emptied
  // source a stamp of its own.
  const std::uint64_t before = copy.generation();
  Topology moved = std::move(copy);
  EXPECT_EQ(moved.generation(), before);
  // Reading the moved-from source's stamp is the point of this check.
  EXPECT_NE(copy.generation(), before);  // NOLINT(bugprone-use-after-move)
}

TEST(Topology, GenerationsStayUniqueAcrossThreads) {
  constexpr int kThreads = 4;
  constexpr int kMutations = 1000;
  std::vector<std::vector<std::uint64_t>> stamps(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&stamps, i] {
      Topology t;
      const NodeId a = t.add_switch();
      const NodeId b = t.add_switch();
      auto& mine = stamps[static_cast<std::size_t>(i)];
      while (mine.size() < kMutations) {
        const WireId w = t.connect(a, 0, b, 0);
        mine.push_back(t.generation());
        t.disconnect(w);
        mine.push_back(t.generation());
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  std::vector<std::uint64_t> all;
  for (const auto& mine : stamps) {
    all.insert(all.end(), mine.begin(), mine.end());
  }
  ASSERT_EQ(all.size(), static_cast<std::size_t>(kThreads * kMutations));
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
}

}  // namespace
}  // namespace sanmap::topo
