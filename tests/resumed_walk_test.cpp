// Differential tests of the simulator's resumed probe walk against the
// plain hop-by-hop walk.
//
// A quiescent Network::send may resume from the previous send's forward
// walk and deliver loopbacks in closed form; a send with an InvariantHook
// attached always takes the plain walk. Each test here drives twin Networks
// over one topology — one bare, one carrying a hook that observes nothing —
// with the same sends in the same order, and demands that every
// DeliveryResult field and every NetworkCounters field agree under all
// three collision models: on recorded mapping sessions over every corpus
// case (Berkeley, self-identifying, randomized and parallel mappers), on
// hand-built sends aimed at the resume rule's edges, and on random probe
// streams that share prefixes the way an explorer's do.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "mapper/berkeley_mapper.hpp"
#include "mapper/id_mapper.hpp"
#include "mapper/parallel_mapper.hpp"
#include "mapper/randomized_mapper.hpp"
#include "probe/probe_engine.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "verify/scenario_case.hpp"

namespace sanmap::simnet {
namespace {

namespace fs = std::filesystem;
using topo::NodeId;
using topo::Topology;

constexpr std::array<CollisionModel, 3> kModels{CollisionModel::kCircuit,
                                                CollisionModel::kCutThrough,
                                                CollisionModel::kPacket};

/// Attaching this hook forces the plain walk; it observes nothing.
class NoopHook final : public InvariantHook {
 public:
  void on_message_begin(NodeId, const Route&, common::SimTime) override {}
  void on_hop(topo::WireId, topo::PortRef, topo::PortRef) override {}
  void on_message_end(const DeliveryResult&, const NetworkCounters&) override {
  }
};

/// Every message of a session, in order: source, route and outcome.
class Recorder final : public InvariantHook {
 public:
  struct Message {
    NodeId src = topo::kInvalidNode;
    Route route;
    DeliveryResult result;
  };

  void on_message_begin(NodeId src, const Route& route,
                        common::SimTime) override {
    messages.push_back({src, route, {}});
  }
  void on_hop(topo::WireId, topo::PortRef, topo::PortRef) override {}
  void on_message_end(const DeliveryResult& result,
                      const NetworkCounters&) override {
    messages.back().result = result;
  }

  std::vector<Message> messages;
};

std::string describe(const DeliveryResult& r) {
  std::ostringstream os;
  os << to_string(r.status) << " at " << r.destination << " after " << r.hops
     << " hops, " << r.latency.to_ns() << " ns, bounce " << r.bounce_switch;
  return os.str();
}

std::string describe(const NetworkCounters& c) {
  std::ostringstream os;
  os << c.messages << " messages, " << c.wire_traversals << " traversals,";
  for (const std::uint64_t n : c.by_status) {
    os << ' ' << n;
  }
  return os.str();
}

/// Two Networks over one topology: `fast` may resume its walks, `plain`
/// carries a NoopHook and walks every hop.
struct Twin {
  explicit Twin(const Topology& t, CollisionModel model, CostModel cost = {},
                HardwareExtensions extensions = {})
      : fast(t, model, cost, {}, 1, extensions),
        plain(t, model, cost, {}, 1, extensions) {
    plain.attach_hook(&hook);
  }

  /// Sends on both; every field of the results and counters must agree.
  DeliveryResult send(NodeId src, const Route& route) {
    const DeliveryResult a = fast.send(src, route);
    const DeliveryResult b = plain.send(src, route);
    EXPECT_EQ(describe(a), describe(b))
        << to_string(plain.collision_model()) << " route "
        << to_string(route) << " from " << src;
    EXPECT_TRUE(fast.counters() == plain.counters())
        << describe(fast.counters()) << " vs " << describe(plain.counters());
    return b;
  }

  NoopHook hook;
  Network fast;
  Network plain;
};

// ------------------------------------------------------ mapping sessions --

std::vector<verify::ScenarioCase> corpus() {
  std::vector<fs::path> paths;
  for (const auto& entry :
       fs::directory_iterator(fs::path(SANMAP_CORPUS_DIR))) {
    if (entry.path().extension() == ".sancase") {
      paths.push_back(entry.path());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<verify::ScenarioCase> cases;
  for (const fs::path& path : paths) {
    cases.push_back(verify::read_case_file(path.string()));
  }
  return cases;
}

/// The oracle stack's depth policy: the §3.1.4 bound when the paper's
/// standing assumptions hold, else a generous structural bound.
int depth_for(const Topology& t, NodeId mapper) {
  if (t.num_switches() >= 1 && t.num_hosts() >= 2 && topo::connected(t)) {
    return topo::search_depth(t, mapper);
  }
  return std::max<int>(1, static_cast<int>(2 * t.num_wires() + 3));
}

HardwareExtensions all_extensions() {
  HardwareExtensions ext;
  ext.self_identifying_switches = true;
  ext.hosts_answer_early_hits = true;
  return ext;
}

/// Runs `session` on a recorded network (hooked, so every hop is walked)
/// and returns the messages it sent.
template <typename Session>
std::vector<Recorder::Message> record(const Topology& t, CollisionModel model,
                                      Session&& session) {
  Network net(t, model, {}, {}, 1, all_extensions());
  Recorder recorder;
  net.attach_hook(&recorder);
  session(net);
  return recorder.messages;
}

/// Replays a recorded stream on twins under every collision model. Under
/// the recording's own model each result must also equal the recording.
void replay(const Topology& t, CollisionModel recorded_under,
            const std::vector<Recorder::Message>& messages,
            const std::string& label) {
  SCOPED_TRACE(label);
  for (const CollisionModel model : kModels) {
    Twin twin(t, model, {}, all_extensions());
    for (const Recorder::Message& m : messages) {
      const DeliveryResult result = twin.send(m.src, m.route);
      if (model == recorded_under) {
        ASSERT_EQ(describe(result), describe(m.result))
            << "route " << to_string(m.route);
      }
      if (testing::Test::HasFailure()) {
        return;
      }
    }
  }
}

TEST(ResumedWalk, MatchesThePlainWalkOnEveryCorpusSession) {
  const auto cases = corpus();
  ASSERT_FALSE(cases.empty());
  for (const verify::ScenarioCase& c : cases) {
    const NodeId mapper = c.mapper_node();
    const int depth = depth_for(c.network, mapper);
    for (const CollisionModel model : kModels) {
      const std::string label = c.name + " " + to_string(model);
      replay(c.network, model,
             record(c.network, model,
                    [&](Network& net) {
                      probe::ProbeEngine engine(net, mapper);
                      mapper::MapperConfig config;
                      config.search_depth = depth;
                      (void)mapper::BerkeleyMapper(engine, config).run();
                    }),
             label + " berkeley");
      replay(c.network, model,
             record(c.network, model,
                    [&](Network& net) {
                      probe::ProbeEngine engine(net, mapper);
                      mapper::RandomizedConfig config;
                      config.base.search_depth = depth;
                      config.wild_probes = 40;
                      config.seed = 3;
                      (void)mapper::RandomizedMapper(engine, config).run();
                    }),
             label + " randomized");
    }
    // The self-identifying mapper runs under cut-through only; its stream
    // (identifying probes that read bounce_switch, alignment sweeps) is
    // replayed under all three models all the same.
    replay(c.network, CollisionModel::kCutThrough,
           record(c.network, CollisionModel::kCutThrough,
                  [&](Network& net) {
                    probe::ProbeEngine engine(net, mapper);
                    (void)mapper::IdMapper(engine).run();
                  }),
           c.name + " id");
    // Parallel mappers share one Network, so the source host alternates.
    replay(c.network, CollisionModel::kCutThrough,
           record(c.network, CollisionModel::kCutThrough,
                  [&](Network& net) {
                    mapper::ParallelConfig config;
                    const auto hosts = c.network.hosts();
                    for (std::size_t i = 0; i < hosts.size() && i < 3; ++i) {
                      config.mappers.push_back(hosts[i]);
                    }
                    config.local_depth = 4;
                    (void)mapper::ParallelMapper(net, config).run();
                  }),
           c.name + " parallel");
    if (HasFailure()) {
      return;
    }
  }
}

// ------------------------------------------------------- hand-built sends --

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

/// A 3-ring r0 -> r1 -> r2 -> r0 (port 0 clockwise, 1 counter-clockwise,
/// 2 host) with host h0 on r0.
struct Ring {
  Topology topo;
  NodeId h0;

  Ring() {
    const NodeId r0 = topo.add_switch();
    const NodeId r1 = topo.add_switch();
    const NodeId r2 = topo.add_switch();
    h0 = topo.add_host("h0");
    topo.connect(r0, 0, r1, 1);
    topo.connect(r1, 0, r2, 1);
    topo.connect(r2, 0, r0, 1);
    topo.connect(h0, 0, r0, 2);
  }
};

/// Cost models for the collision edges: the default (cut-through reuse
/// stalls into the port buffers) and one whose worms cannot fit (reuse
/// deadlocks).
std::vector<CostModel> cost_models() {
  CostModel tight;
  tight.port_buffer_flits = 0;
  tight.payload_flits = 10000;
  return {CostModel{}, tight};
}

TEST(ResumedWalk, LoopbacksOverACycleFallBack) {
  Ring ring;
  for (const CollisionModel model : kModels) {
    for (const CostModel& cost : cost_models()) {
      Twin twin(ring.topo, model, cost);
      // Once around the ring is wire-simple: closed form.
      EXPECT_TRUE(twin.send(ring.h0, loopback_probe({-2, -1, -1})).delivered());
      // One hop further recrosses r0 -> r1: the walk must fall back, and a
      // probe sharing that prefix must fall back without re-walking it.
      twin.send(ring.h0, loopback_probe({-2, -1, -1, -1}));
      twin.send(ring.h0, loopback_probe({-2, -1, -1, -1, -1}));
      twin.send(ring.h0, {-2, -1, -1, -1, -1, -1, 1});
      twin.send(ring.h0, {-2, -1, -1, 1});
      // Turning back at r1 recrosses the wire just used.
      twin.send(ring.h0, {-2, 0, 0, 0, 2});
      twin.send(ring.h0, loopback_probe({-2, -1, -1}));
    }
  }
}

TEST(ResumedWalk, LoopbacksOverASelfLoopCable) {
  // s carries a loopback cable from port 3 to port 6; h enters at port 0.
  Topology t;
  const NodeId h = t.add_host("h");
  const NodeId s = t.add_switch();
  t.connect(h, 0, s, 0);
  t.connect(s, 3, s, 6);
  for (const CollisionModel model : kModels) {
    for (const CostModel& cost : cost_models()) {
      Twin twin(t, model, cost);
      // Across the cable once, pivot, back across it: wire-simple.
      EXPECT_TRUE(twin.send(h, loopback_probe({3})).delivered());
      // Across it, then out port 3 again: the same channel twice, which
      // must fall back (a circuit collision, a cut-through stall or
      // deadlock, a packet delivery).
      twin.send(h, loopback_probe({3, -3}));
      twin.send(h, {3, -3, -6});
      twin.send(h, {3, -6});
      twin.send(h, loopback_probe({3}));
    }
  }
}

TEST(ResumedWalk, FirstZeroTurnInsideThePrefix) {
  Line line;
  for (const CollisionModel model : kModels) {
    Twin twin(line.topo, model, {}, all_extensions());
    // A 0 inside F turns the head back at s0, which stays the bounce
    // switch although the message dies at h0 before reaching its pivot.
    const DeliveryResult inside = twin.send(line.h0, {0, 0, 0});
    EXPECT_EQ(inside.bounce_switch, line.s0);
    twin.send(line.h0, {3, 0, 0, 0, -3});
    twin.send(line.h0, {3, 0, -3});
    twin.send(line.h0, {3, 0, 0, 0, -3});
    twin.send(line.h0, {3, 0, -3, 0, 3, 0, -3});
    // The pivot's switch is the bounce switch of a wire-simple loopback.
    EXPECT_EQ(twin.send(line.h0, loopback_probe({3})).bounce_switch, line.s1);
    EXPECT_EQ(twin.send(line.h0, loopback_probe({})).bounce_switch, line.s0);
  }
}

TEST(ResumedWalk, FailuresJustPastACachedPrefix) {
  Line line;
  for (const CollisionModel model : kModels) {
    Twin twin(line.topo, model);
    twin.send(line.h0, loopback_probe({3}));
    // s1 is entered at port 1: +7 leaves the switch, +1 finds no wire.
    EXPECT_EQ(twin.send(line.h0, loopback_probe({3, 7})).status,
              DeliveryStatus::kIllegalTurn);
    EXPECT_EQ(twin.send(line.h0, {3, 7}).status, DeliveryStatus::kIllegalTurn);
    EXPECT_EQ(twin.send(line.h0, loopback_probe({3, 1})).status,
              DeliveryStatus::kNoSuchWire);
    EXPECT_EQ(twin.send(line.h0, {3, 1}).status, DeliveryStatus::kNoSuchWire);
    // h1 reached with turns to spare, as a forward route and as a loopback.
    EXPECT_EQ(twin.send(line.h0, {3, 3, 1, 1}).status,
              DeliveryStatus::kHitHostTooSoon);
    EXPECT_EQ(twin.send(line.h0, loopback_probe({3, 3})).status,
              DeliveryStatus::kHitHostTooSoon);
    EXPECT_EQ(twin.send(line.h0, loopback_probe({3, 3, 2})).status,
              DeliveryStatus::kHitHostTooSoon);
    EXPECT_TRUE(twin.send(line.h0, {3, 3}).delivered());
    EXPECT_EQ(twin.send(line.h0, {3}).status,
              DeliveryStatus::kStrandedInNetwork);
    EXPECT_EQ(twin.send(line.h0, {}).status,
              DeliveryStatus::kStrandedInNetwork);
  }
}

TEST(ResumedWalk, LongRouteThenShorterOnTheSamePrefix) {
  const Topology t = topo::ring(8, 1);
  const NodeId h0 = t.hosts().front();
  for (const CollisionModel model : kModels) {
    Twin twin(t, model);
    Route around{-2};
    for (int i = 0; i < 6; ++i) {
      around.push_back(-1);
    }
    twin.send(h0, loopback_probe(around));
    for (std::size_t keep = around.size(); keep-- > 0;) {
      const Route shorter(around.begin(),
                          around.begin() + static_cast<long>(keep));
      twin.send(h0, loopback_probe(shorter));
      twin.send(h0, shorter);
    }
    twin.send(h0, loopback_probe(around));
  }
}

TEST(ResumedWalk, AlternatingSourceHosts) {
  Line line;
  for (const CollisionModel model : kModels) {
    Twin twin(line.topo, model);
    // h1 enters s1 at port 4: -3 reaches s0 at 5, -3 reaches h0.
    for (int round = 0; round < 3; ++round) {
      EXPECT_EQ(twin.send(line.h0, loopback_probe({3})).destination, line.h0);
      EXPECT_EQ(twin.send(line.h1, loopback_probe({-3})).destination,
                line.h1);
      EXPECT_EQ(twin.send(line.h1, {-3, -3}).destination, line.h0);
      EXPECT_EQ(twin.send(line.h0, {3, 3}).destination, line.h1);
    }
  }
}

// -------------------------------------------------------- random streams --

/// An explorer-like stream: a current prefix that grows, shrinks and jumps,
/// loopbacks and forward routes one turn past it, junk routes, and now and
/// then another source host.
void random_stream(const Topology& t, std::uint64_t seed, int sends) {
  common::Rng rng(seed);
  const std::vector<NodeId> hosts = t.hosts();
  const auto turn = [&] {
    return static_cast<Turn>(rng.chance(0.7) ? rng.range(-3, 3)
                                             : rng.range(kMinTurn, kMaxTurn));
  };
  for (const CollisionModel model : kModels) {
    Twin twin(t, model);
    NodeId src = hosts.front();
    Route prefix;
    for (int i = 0; i < sends && !testing::Test::HasFailure(); ++i) {
      const double action = rng.uniform();
      if (action < 0.05) {
        src = rng.pick(hosts);
      } else if (action < 0.15) {
        prefix.resize(static_cast<std::size_t>(
            rng.below(prefix.size() + 1)));
      } else if (action < 0.25 && prefix.size() < 12) {
        prefix.push_back(turn());
      }
      Route route = extended(prefix, turn());
      if (rng.chance(0.6)) {
        route = loopback_probe(route);
      } else if (rng.chance(0.2)) {
        route.push_back(turn());
      }
      twin.send(src, route);
    }
  }
}

TEST(ResumedWalk, RandomStreamsOnGeneratedFabrics) {
  random_stream(topo::ring(6, 1), 1, 2000);
  random_stream(topo::mesh(3, 3, 1), 2, 2000);
  random_stream(topo::fat_tree({}), 3, 2000);
  common::Rng rng(4);
  random_stream(topo::random_irregular(10, 6, 8, rng), 5, 2000);

  // Parallel cables and loopback cables make reuse common.
  Topology odd;
  const NodeId a = odd.add_host("a");
  const NodeId b = odd.add_host("b");
  const NodeId s0 = odd.add_switch();
  const NodeId s1 = odd.add_switch();
  odd.connect(a, 0, s0, 0);
  odd.connect(b, 0, s1, 0);
  odd.connect(s0, 1, s1, 1);
  odd.connect(s0, 2, s1, 2);
  odd.connect(s0, 3, s0, 5);
  odd.connect(s1, 4, s1, 7);
  random_stream(odd, 6, 3000);
}

}  // namespace
}  // namespace sanmap::simnet
