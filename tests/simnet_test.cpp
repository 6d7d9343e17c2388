// Tests for the wormhole network simulator: §2.2 route semantics, the four
// failure modes, both §2.3.1 collision models, cost accounting, and fault
// injection.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "simnet/network.hpp"
#include "topology/generators.hpp"

namespace sanmap::simnet {
namespace {

using topo::NodeId;
using topo::Topology;

/// h0 -- s0 -- s1 -- h1 with known ports:
///   h0.0 - s0.2 ; s0.5 - s1.1 ; s1.4 - h1.0
struct Line {
  Topology topo;
  NodeId h0, s0, s1, h1;

  Line() {
    h0 = topo.add_host("h0");
    s0 = topo.add_switch();
    s1 = topo.add_switch();
    h1 = topo.add_host("h1");
    topo.connect(h0, 0, s0, 2);
    topo.connect(s0, 5, s1, 1);
    topo.connect(s1, 4, h1, 0);
  }
};

// --------------------------------------------------------------- routes ----

TEST(Route, ToString) {
  EXPECT_EQ(to_string(Route{3, -2, 0}), "+3.-2.+0");
  EXPECT_EQ(to_string(Route{}), "");
}

TEST(Route, Reversed) {
  EXPECT_EQ(reversed(Route{3, -2, 1}), (Route{-1, 2, -3}));
  EXPECT_EQ(reversed(Route{}), Route{});
}

TEST(Route, Extended) {
  EXPECT_EQ(extended(Route{1}, -4), (Route{1, -4}));
}

TEST(Route, LoopbackProbeShape) {
  // a1..ak 0 -ak..-a1 (§2.3).
  EXPECT_EQ(loopback_probe(Route{3, -2}), (Route{3, -2, 0, 2, -3}));
  EXPECT_EQ(loopback_probe(Route{}), (Route{0}));
}

TEST(Route, TurnsInRange) {
  EXPECT_TRUE(turns_in_range(Route{-7, 7, 0}));
  EXPECT_FALSE(turns_in_range(Route{8}));
  EXPECT_FALSE(turns_in_range(Route{-8}));
}

// ----------------------------------------------------------- cost model ----

TEST(CostModel, FlitTimeMatchesLinkRate) {
  const CostModel cost;
  // 1.28 Gb/s = 6.25 ns per byte.
  EXPECT_NEAR(static_cast<double>(cost.flit_time().to_ns()), 6.25, 0.3);
}

TEST(CostModel, PathLatencyScalesWithHops) {
  const CostModel cost;
  const auto l1 = cost.path_latency(1, 0);
  const auto l2 = cost.path_latency(2, 0);
  EXPECT_EQ((l2 - l1).to_ns(), cost.switch_latency.to_ns());
}

// ------------------------------------------------------ route execution ----

TEST(Network, DeliversToHostAlongLine) {
  Line line;
  Network net(line.topo);
  // h0 -> s0 (enter port 2): turn +3 -> port 5 -> s1 (enter port 1):
  // turn +3 -> port 4 -> h1. Route exhausted at h1: delivered.
  const auto r = net.send(line.h0, Route{3, 3});
  EXPECT_TRUE(r.delivered());
  EXPECT_EQ(r.destination, line.h1);
  EXPECT_EQ(r.hops, 3);
}

TEST(Network, EmptyRouteToAdjacentSwitchIsStranded) {
  Line line;
  Network net(line.topo);
  const auto r = net.send(line.h0, Route{});
  EXPECT_EQ(r.status, DeliveryStatus::kStrandedInNetwork);
  EXPECT_EQ(r.destination, line.s0);
  EXPECT_EQ(r.hops, 1);
}

TEST(Network, IllegalTurnKillsMessage) {
  Line line;
  Network net(line.topo);
  // Entering s0 at port 2, turn +6 -> port 8: illegal.
  const auto r = net.send(line.h0, Route{6});
  EXPECT_EQ(r.status, DeliveryStatus::kIllegalTurn);
  EXPECT_EQ(r.destination, line.s0);
  // Turn -3 -> port -1: illegal.
  EXPECT_EQ(net.send(line.h0, Route{-3}).status,
            DeliveryStatus::kIllegalTurn);
}

TEST(Network, NoSuchWireKillsMessage) {
  Line line;
  Network net(line.topo);
  // Entering s0 at port 2, turn +1 -> port 3: legal port, no wire.
  const auto r = net.send(line.h0, Route{1});
  EXPECT_EQ(r.status, DeliveryStatus::kNoSuchWire);
  EXPECT_EQ(r.destination, line.s0);
}

TEST(Network, HitAHostTooSoon) {
  Line line;
  Network net(line.topo);
  // Route +3 +3 +1: the third turn arrives at h1 with a flit remaining.
  const auto r = net.send(line.h0, Route{3, 3, 1});
  EXPECT_EQ(r.status, DeliveryStatus::kHitHostTooSoon);
  EXPECT_EQ(r.destination, line.h1);
}

TEST(Network, StrandedWhenRouteEndsAtSwitch) {
  Line line;
  Network net(line.topo);
  const auto r = net.send(line.h0, Route{3});
  EXPECT_EQ(r.status, DeliveryStatus::kStrandedInNetwork);
  EXPECT_EQ(r.destination, line.s1);
}

TEST(Network, TurnZeroBouncesBackOutTheEntryPort) {
  Line line;
  Network net(line.topo);
  // +3 0 -3: out to s1, bounce (port 1 + 0), come back through s0
  // (enter 5, turn -3 -> port 2), arrive h0: the loopback switch probe.
  const auto r = net.send(line.h0, loopback_probe(Route{3}));
  EXPECT_TRUE(r.delivered());
  EXPECT_EQ(r.destination, line.h0);
  EXPECT_EQ(r.hops, 4);
}

TEST(Network, VisitedTraceRecordsPath) {
  Line line;
  Network net(line.topo);
  std::vector<NodeId> visited;
  net.send(line.h0, Route{3, 3}, &visited);
  EXPECT_EQ(visited,
            (std::vector<NodeId>{line.h0, line.s0, line.s1, line.h1}));
}

TEST(Network, SelfLoopWireTraversal) {
  // Switch with a loopback cable: port 3 <-> port 6 on s.
  Topology t;
  const NodeId h = t.add_host("h");
  const NodeId s = t.add_switch();
  t.connect(h, 0, s, 0);
  t.connect(s, 3, s, 6);
  Network net(t);
  // Enter s at port 0, turn +3 -> port 3 -> re-enter s at port 6,
  // turn -6 -> port 0 -> back at h: delivered to self.
  const auto r = net.send(h, Route{3, -6});
  EXPECT_TRUE(r.delivered());
  EXPECT_EQ(r.destination, h);
  EXPECT_EQ(r.hops, 3);
}

TEST(Network, SendFromSwitchRejected) {
  Line line;
  Network net(line.topo);
  EXPECT_THROW(net.send(line.s0, Route{}), common::CheckFailure);
}

TEST(Network, OutOfRangeTurnRejectedUpFront) {
  Line line;
  Network net(line.topo);
  EXPECT_THROW(net.send(line.h0, Route{9}), common::CheckFailure);
}

/// Attaching this hook forces the plain hop-by-hop walk.
class NoopHook final : public InvariantHook {
 public:
  void on_message_begin(NodeId, const Route&, common::SimTime) override {}
  void on_hop(topo::WireId, topo::PortRef, topo::PortRef) override {}
  void on_message_end(const DeliveryResult&, const NetworkCounters&) override {
  }
};

TEST(Network, QuiescentWalkSeesTopologyMutations) {
  // h0 - s0 - s1 - s2 - h1, each switch entered at port 0 and left at 1.
  Topology t;
  const NodeId h0 = t.add_host("h0");
  const NodeId s0 = t.add_switch();
  const NodeId s1 = t.add_switch();
  const NodeId s2 = t.add_switch();
  const NodeId h1 = t.add_host("h1");
  t.connect(h0, 0, s0, 0);
  t.connect(s0, 1, s1, 0);
  const topo::WireId middle = t.connect(s1, 1, s2, 0);
  t.connect(s2, 1, h1, 0);

  // `fast` may resume from its previous walk; `plain` walks every hop.
  Network fast(t);
  NoopHook hook;
  Network plain(t);
  plain.attach_hook(&hook);
  const auto both = [&](const Route& route) {
    const DeliveryResult a = fast.send(h0, route);
    const DeliveryResult b = plain.send(h0, route);
    EXPECT_EQ(a.status, b.status) << to_string(route);
    EXPECT_EQ(a.destination, b.destination) << to_string(route);
    EXPECT_EQ(a.hops, b.hops) << to_string(route);
    EXPECT_EQ(a.latency, b.latency) << to_string(route);
    EXPECT_EQ(a.bounce_switch, b.bounce_switch) << to_string(route);
    EXPECT_TRUE(fast.counters() == plain.counters());
    return a;
  };

  // The first send walks, and remembers, h0 -> s0 -> s1 -> s2; the second
  // shares that prefix, but its wire s1 -> s2 is gone in between.
  EXPECT_TRUE(both(loopback_probe({1, 1})).delivered());
  t.disconnect(middle);
  const DeliveryResult cut = both({1, 1, 1});
  EXPECT_EQ(cut.status, DeliveryStatus::kNoSuchWire);
  EXPECT_EQ(cut.destination, s1);
  EXPECT_EQ(cut.hops, 2);

  t.connect(s1, 1, s2, 0);
  const DeliveryResult healed = both({1, 1, 1});
  EXPECT_TRUE(healed.delivered());
  EXPECT_EQ(healed.destination, h1);
  EXPECT_EQ(healed.hops, 4);

  t.remove_node(s2);
  const DeliveryResult removed = both({1, 1, 1});
  EXPECT_EQ(removed.status, DeliveryStatus::kNoSuchWire);
  EXPECT_EQ(removed.destination, s1);
  EXPECT_EQ(removed.hops, 2);

  // Another fabric copied into the referenced topology: h0 and s0 keep
  // their ids, and s0's port 1 is free.
  Topology other;
  const NodeId other_h0 = other.add_host("h0");
  other.connect(other_h0, 0, other.add_switch(), 0);
  ASSERT_EQ(other_h0, h0);
  t = other;
  const DeliveryResult swapped = both({1, 1, 1});
  EXPECT_EQ(swapped.status, DeliveryStatus::kNoSuchWire);
  EXPECT_EQ(swapped.destination, s0);
  EXPECT_EQ(swapped.hops, 1);
}

// ------------------------------------------------------ collision models ----

/// Ring of 3 switches with two hosts; a route that circles the ring twice
/// reuses every ring channel in the same direction.
struct RingNet {
  Topology topo;
  NodeId h0;

  RingNet() {
    topo = topo::ring(3, 1);
    h0 = topo.hosts().front();
  }
};

/// A route from h0 around the 3-ring once and back to h0's switch, then
/// continuing around again before delivering to h0.
///
/// ring ports: 0 = clockwise, 1 = counter-clockwise, 2 = host.
/// From h0, enter r0 at port 2. Turn -2 -> port 0 -> r1 enter port 1.
/// Turn -1 -> port 0 -> r2 enter port 1. Turn -1 -> port 0 -> r0 enter
/// port 1 (full circle). Repeat: -1 -> r1, -1 -> r2, -1 -> r0, then
/// +1 -> port 2 -> h0.
Route double_loop_route() { return Route{-2, -1, -1, -1, -1, -1, 1}; }

TEST(Collision, CircuitModelFailsOnSameDirectionReuse) {
  RingNet ring;
  Network net(ring.topo, CollisionModel::kCircuit);
  const auto r = net.send(ring.h0, double_loop_route());
  EXPECT_EQ(r.status, DeliveryStatus::kSelfCollision);
}

TEST(Collision, CutThroughWithBufferingSurvivesReuse) {
  RingNet ring;
  // Default cost model: 108 flits of buffering per port absorbs the short
  // worm, so the double loop succeeds.
  Network net(ring.topo, CollisionModel::kCutThrough);
  const auto r = net.send(ring.h0, double_loop_route());
  EXPECT_TRUE(r.delivered());
  EXPECT_EQ(r.destination, ring.h0);
}

TEST(Collision, CutThroughWithoutBufferingDeadlocks) {
  RingNet ring;
  CostModel cost;
  cost.port_buffer_flits = 0;
  cost.payload_flits = 10000;  // a worm far longer than the drain time
  Network net(ring.topo, CollisionModel::kCutThrough, cost);
  const auto r = net.send(ring.h0, double_loop_route());
  EXPECT_EQ(r.status, DeliveryStatus::kSelfCollision);
  // The deadlock costs the hardware break interval.
  EXPECT_GE(r.latency, cost.deadlock_break);
}

TEST(Collision, CutThroughLongGapDrainsNaturally) {
  // With a tiny message and a large ring, the tail drains long before the
  // head returns — no stall even with zero buffering.
  Topology t = topo::ring(8, 1);
  const NodeId h0 = t.hosts().front();
  CostModel cost;
  cost.port_buffer_flits = 0;
  cost.payload_flits = 0;
  Network net(t, CollisionModel::kCutThrough, cost);
  // Around the 8-ring twice: 8 + 8 hops, then into h0.
  Route route{-2};
  for (int i = 0; i < 15; ++i) {
    route.push_back(-1);
  }
  route.push_back(1);
  const auto r = net.send(h0, route);
  EXPECT_TRUE(r.delivered());
}

TEST(Collision, CircuitModelAllowsDisjointPath) {
  RingNet ring;
  Network net(ring.topo, CollisionModel::kCircuit);
  // One loop only: each channel used once.
  const auto r = net.send(ring.h0, Route{-2, -1, -1, 1});
  EXPECT_TRUE(r.delivered());
}

TEST(Collision, OppositeDirectionsAreDistinctChannels) {
  // Loopback probes reuse every wire in the *opposite* direction; that is
  // legal even under the circuit model (full-duplex links).
  Line line;
  Network net(line.topo, CollisionModel::kCircuit);
  const auto r = net.send(line.h0, loopback_probe(Route{3}));
  EXPECT_TRUE(r.delivered());
}

TEST(Collision, CircuitSwitchProbeWithForwardEdgeReuseFails) {
  // A loopback probe whose forward leg reuses a wire in the opposite
  // direction fails under circuit routing: the return leg then needs a
  // channel the circuit already holds. Forward leg: h0 -> r0 -> r1 -> r0
  // (back over the same wire), pivot, return. Under circuit the return
  // re-crosses r0->r1 which is held by the forward leg.
  RingNet ring;
  Network net(ring.topo, CollisionModel::kCircuit);
  // Enter r0 at 2; -2 -> port 0 -> r1 (enter 1); 0 -> back out port 1 ->
  // r0 (enter 0); pivot at... construct explicitly: forward a1=-2, a2=0
  // then pivot 0 then -a2=0, -a1=+2.
  const auto r = net.send(ring.h0, Route{-2, 0, 0, 0, 2});
  EXPECT_EQ(r.status, DeliveryStatus::kSelfCollision);
}

// --------------------------------------------------------------- faults ----

TEST(Faults, TrafficCollisionsOccurAtExpectedRate) {
  Line line;
  FaultModel faults;
  faults.traffic_intensity = 0.3;
  Network net(line.topo, CollisionModel::kCutThrough, CostModel{}, faults,
              /*fault_seed=*/7);
  int delivered = 0;
  const int trials = 2000;
  for (int i = 0; i < trials; ++i) {
    delivered += net.send(line.h0, Route{3, 3}).delivered() ? 1 : 0;
  }
  // Survival probability = (1 - 0.3)^3 = 0.343 over three hops.
  EXPECT_NEAR(static_cast<double>(delivered) / trials, 0.343, 0.05);
  EXPECT_EQ(net.counters().of(DeliveryStatus::kTrafficCollision) +
                static_cast<std::uint64_t>(delivered),
            static_cast<std::uint64_t>(trials));
}

TEST(Faults, DropsAndCorruptionAreEndToEnd) {
  Line line;
  FaultModel faults;
  faults.drop_probability = 0.5;
  Network net(line.topo, CollisionModel::kCutThrough, CostModel{}, faults, 3);
  int dropped = 0;
  for (int i = 0; i < 1000; ++i) {
    const auto r = net.send(line.h0, Route{3, 3});
    EXPECT_TRUE(r.status == DeliveryStatus::kDelivered ||
                r.status == DeliveryStatus::kDropped);
    dropped += r.status == DeliveryStatus::kDropped ? 1 : 0;
  }
  EXPECT_NEAR(dropped / 1000.0, 0.5, 0.06);
}

TEST(Faults, DeterministicForSameSeed) {
  Line line;
  FaultModel faults;
  faults.traffic_intensity = 0.2;
  Network a(line.topo, CollisionModel::kCutThrough, CostModel{}, faults, 42);
  Network b(line.topo, CollisionModel::kCutThrough, CostModel{}, faults, 42);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.send(line.h0, Route{3, 3}).status,
              b.send(line.h0, Route{3, 3}).status);
  }
}

TEST(Faults, InvalidProbabilitiesRejected) {
  Line line;
  FaultModel faults;
  faults.traffic_intensity = 1.0;
  EXPECT_THROW(
      Network(line.topo, CollisionModel::kCutThrough, CostModel{}, faults),
      common::CheckFailure);
}

// --------------------------------------------------------------- timing ----

TEST(Timing, LatencyGrowsWithPathLength) {
  Line line;
  Network net(line.topo);
  const auto near = net.send(line.h0, loopback_probe(Route{}));  // 2 hops
  const auto far = net.send(line.h0, loopback_probe(Route{3}));  // 4 hops
  ASSERT_TRUE(near.delivered());
  ASSERT_TRUE(far.delivered());
  EXPECT_LT(near.latency, far.latency);
}

TEST(Timing, SubMillisecondProbeLatency) {
  // Network-level latencies are microseconds; the milliseconds in Figure 7
  // come from host software overheads and timeouts, not the wires.
  Line line;
  Network net(line.topo);
  const auto r = net.send(line.h0, Route{3, 3});
  EXPECT_LT(r.latency, common::SimTime::from_us(100.0));
}

// --------------------------------------------------------------- counters --

TEST(Counters, TrackStatusAndTraversals) {
  Line line;
  Network net(line.topo);
  net.send(line.h0, Route{3, 3});  // delivered, 3 hops
  net.send(line.h0, Route{6});     // illegal turn, 1 hop
  EXPECT_EQ(net.counters().messages, 2u);
  EXPECT_EQ(net.counters().of(DeliveryStatus::kDelivered), 1u);
  EXPECT_EQ(net.counters().of(DeliveryStatus::kIllegalTurn), 1u);
  EXPECT_EQ(net.counters().wire_traversals, 4u);
  net.reset_counters();
  EXPECT_EQ(net.counters().messages, 0u);
}

TEST(Counters, StatusNames) {
  EXPECT_STREQ(to_string(DeliveryStatus::kDelivered), "delivered");
  EXPECT_STREQ(to_string(DeliveryStatus::kStrandedInNetwork),
               "stranded-in-network");
  EXPECT_STREQ(to_string(CollisionModel::kCircuit), "circuit");
  EXPECT_STREQ(to_string(CollisionModel::kCutThrough), "cut-through");
  for (const CollisionModel model :
       {CollisionModel::kCircuit, CollisionModel::kCutThrough,
        CollisionModel::kPacket}) {
    EXPECT_EQ(parse_collision(to_string(model)), model);
  }
  EXPECT_EQ(parse_collision("circut"), std::nullopt);
}

}  // namespace
}  // namespace sanmap::simnet
