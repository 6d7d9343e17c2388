// The routing::Engine interface: the DFS-order load-aware engine next to
// UP*/DOWN*, the Mendlovic–Matias acyclicity checker, the RouteOptimizer,
// and the regressions this PR fixes — SL403 consuming the engine's cable
// plan, self_heal_routes escalating on an unroutable partial remap, and
// the snapshot codec carrying engine + optimizer provenance (v2, with v1
// back-compat).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/certificates.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "routing/congestion.hpp"
#include "routing/deadlock.hpp"
#include "routing/engine.hpp"
#include "routing/optimizer.hpp"
#include "routing/route_health.hpp"
#include "routing/routes.hpp"
#include "service/map_catalog.hpp"
#include "service/snapshot.hpp"
#include "service/snapshot_codec.hpp"
#include "simnet/network.hpp"
#include "topology/generators.hpp"
#include "verify/scenario_case.hpp"

namespace {

using namespace sanmap;

bool same_tables(const routing::RoutingResult& a,
                 const routing::RoutingResult& b) {
  if (a.routes.size() != b.routes.size()) {
    return false;
  }
  for (const auto& [key, route] : a.routes) {
    const auto it = b.routes.find(key);
    if (it == b.routes.end() || it->second.nodes != route.nodes ||
        it->second.wires != route.wires || it->second.turns != route.turns) {
      return false;
    }
  }
  return a.meta.cable_plan == b.meta.cable_plan;
}

/// Full certification stack for a table: 3-color DFS acyclicity, order
/// compliance, the MM condition, and both analysis-layer certificates
/// surviving their independent re-checkers.
::testing::AssertionResult certifies(const topo::Topology& t,
                                     const routing::RoutingResult& routes) {
  const auto paths = routing::route_channel_paths(t, routes);
  const auto dfs3 = routing::analyze_channel_paths(t, paths);
  if (!dfs3.deadlock_free) {
    return ::testing::AssertionFailure() << "3-color DFS found a cycle";
  }
  if (!routing::updown_compliant(routes)) {
    return ::testing::AssertionFailure() << "a down-to-up turn slipped in";
  }
  const auto mm = routing::check_mm_condition(t, paths);
  if (!mm.holds) {
    return ::testing::AssertionFailure() << "MM condition violated";
  }
  std::vector<std::string> why;
  const auto legality = analysis::build_legality_certificate(t, routes);
  if (!legality.all_legal ||
      !analysis::check_legality(t, routes, legality, &why)) {
    return ::testing::AssertionFailure()
           << "legality certificate failed: "
           << (why.empty() ? "illegal route" : why.front());
  }
  const auto deadlock = analysis::build_deadlock_certificate(t, paths);
  if (!deadlock.deadlock_free ||
      !analysis::check_deadlock(paths, deadlock, &why)) {
    return ::testing::AssertionFailure()
           << "deadlock certificate failed: "
           << (why.empty() ? "cycle recorded" : why.front());
  }
  return ::testing::AssertionSuccess();
}

TEST(Engine, RegistryAndParsing) {
  EXPECT_EQ(routing::engine_for(routing::EngineKind::kUpDown).name(),
            std::string("updown"));
  EXPECT_EQ(routing::engine_for(routing::EngineKind::kDfs).name(),
            std::string("dfs"));
  EXPECT_EQ(routing::parse_engine("dfs"), routing::EngineKind::kDfs);
  EXPECT_EQ(routing::parse_engine("updown"), routing::EngineKind::kUpDown);
  EXPECT_FALSE(routing::parse_engine("bfs").has_value());
  EXPECT_STREQ(routing::to_string(routing::EngineKind::kDfs), "dfs");
}

TEST(Engine, DfsCertifiesOnTheNowCluster) {
  const topo::Topology t = topo::now_cluster();
  const auto routes = routing::compute_routes(t, routing::EngineKind::kDfs);
  EXPECT_EQ(routes.meta.engine, routing::EngineKind::kDfs);
  EXPECT_FALSE(routes.meta.optimized);
  EXPECT_EQ(routes.routes.size(),
            t.num_hosts() * (t.num_hosts() - 1));
  EXPECT_TRUE(certifies(t, routes));
}

TEST(Engine, DfsIsDeterministicAndSeedIndependent) {
  const topo::Topology t = topo::now_cluster();
  const auto a = routing::compute_routes(t, routing::EngineKind::kDfs, {}, 1);
  const auto b = routing::compute_routes(t, routing::EngineKind::kDfs, {}, 99);
  EXPECT_TRUE(same_tables(a, b));
}

TEST(Engine, DfsCutsMaxChannelLoadOnFig5) {
  const topo::Topology t = topo::now_cluster();
  const auto updown =
      routing::compute_routes(t, routing::EngineKind::kUpDown);
  const auto dfs = routing::compute_routes(t, routing::EngineKind::kDfs);
  const auto lu = routing::channel_load(t, updown);
  const auto ld = routing::channel_load(t, dfs);
  EXPECT_LT(ld.max_channel_load, lu.max_channel_load);
}

// The 200-topology property sweep: both engines must produce tables whose
// channel-dependency graph satisfies the Mendlovic–Matias condition, in
// agreement with the Kahn-based DeadlockCertificate checker and the 3-color
// DFS — three independent acyclicity algorithms, one verdict.
TEST(Engine, MmConditionHoldsOn200RandomTopologies) {
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    common::Rng rng(seed);
    // 8 ports a switch: the spanning tree burns 2(s-1) ends and each extra
    // link 2 more, so hosts <= 2s and extras <= s always leave free ports.
    const int switches = static_cast<int>(2 + rng.below(10));
    const int hosts = static_cast<int>(
        2 + rng.below(static_cast<std::uint64_t>(2 * switches - 1)));
    const int extra = static_cast<int>(rng.below(
        static_cast<std::uint64_t>(switches)));
    const topo::Topology t =
        topo::random_irregular(switches, hosts, extra, rng);
    for (const auto kind :
         {routing::EngineKind::kUpDown, routing::EngineKind::kDfs}) {
      const auto routes = routing::compute_routes(t, kind, {}, seed);
      const auto paths = routing::route_channel_paths(t, routes);
      const auto mm = routing::check_mm_condition(t, paths);
      const auto dfs3 = routing::analyze_channel_paths(t, paths);
      const auto cert = analysis::build_deadlock_certificate(t, paths);
      std::vector<std::string> why;
      ASSERT_TRUE(mm.holds) << "seed " << seed << " engine "
                            << routing::to_string(kind);
      ASSERT_EQ(mm.holds, dfs3.deadlock_free) << "seed " << seed;
      ASSERT_EQ(mm.holds, cert.deadlock_free) << "seed " << seed;
      ASSERT_TRUE(analysis::check_deadlock(paths, cert, &why))
          << "seed " << seed << ": "
          << (why.empty() ? "?" : why.front());
      ASSERT_TRUE(routing::updown_compliant(routes)) << "seed " << seed;
    }
  }
}

TEST(Optimizer, HoldsSafetyAndNeverWorsensTheMax) {
  const topo::Topology t = topo::now_cluster();
  for (const auto kind :
       {routing::EngineKind::kUpDown, routing::EngineKind::kDfs}) {
    auto routes = routing::compute_routes(t, kind);
    const auto report = routing::optimize_routes(t, routes);
    EXPECT_LE(report.max_load_after, report.max_load_before)
        << routing::to_string(kind);
    EXPECT_TRUE(routes.meta.optimized);
    EXPECT_TRUE(certifies(t, routes)) << routing::to_string(kind);
  }
}

TEST(Optimizer, IsDeterministic) {
  const topo::Topology t = topo::now_cluster();
  auto a = routing::compute_routes(t, routing::EngineKind::kUpDown);
  auto b = routing::compute_routes(t, routing::EngineKind::kUpDown);
  routing::optimize_routes(t, a);
  routing::optimize_routes(t, b);
  EXPECT_TRUE(same_tables(a, b));
}

TEST(Optimizer, RebalancesASkewedParallelTrunk) {
  // Two switches joined by two cables, three hosts a side: whatever the
  // seed dealt, the optimizer's cable pass must leave the trunk's joint
  // (both-direction) loads within one route of each other.
  topo::Topology t;
  const auto s0 = t.add_switch("s0");
  const auto s1 = t.add_switch("s1");
  const topo::WireId w0 = t.connect(s0, 0, s1, 0);
  const topo::WireId w1 = t.connect(s0, 1, s1, 1);
  for (int i = 0; i < 3; ++i) {
    t.connect(t.add_host("a" + std::to_string(i)), 0, s0,
              static_cast<topo::Port>(2 + i));
    t.connect(t.add_host("b" + std::to_string(i)), 0, s1,
              static_cast<topo::Port>(2 + i));
  }
  auto routes = routing::compute_routes(t, routing::EngineKind::kUpDown);
  routing::optimize_routes(t, routes);
  EXPECT_TRUE(certifies(t, routes));
  std::size_t joint0 = 0;
  std::size_t joint1 = 0;
  for (const auto& [key, route] : routes.routes) {
    for (const topo::WireId w : route.wires) {
      if (w == w0) {
        ++joint0;
      }
      if (w == w1) {
        ++joint1;
      }
    }
  }
  const std::size_t hi = std::max(joint0, joint1);
  const std::size_t lo = std::min(joint0, joint1);
  EXPECT_LE(hi - lo, 1u) << "trunk skew " << joint0 << " vs " << joint1;
  // And the optimizer re-declared its deal so SL403 audits intent.
  EXPECT_EQ(routes.meta.cable_plan.size(), 4u);
}

// Regression (SL403): the skew lint used to re-derive a per-direction
// uniformity expectation from the route table even when the engine declared
// a per-group assignment. A deliberately direction-split deal — all a->b
// traffic on one cable, all b->a on its sibling — is jointly balanced, yet
// the recomputed heuristic flagged it. The lint must consume the engine's
// group metadata instead.
TEST(Lints, Sl403ConsumesTheEngineCablePlan) {
  topo::Topology t;
  const auto s0 = t.add_switch("s0");
  const auto s1 = t.add_switch("s1");
  const topo::WireId w0 = t.connect(s0, 0, s1, 0);
  const topo::WireId w1 = t.connect(s0, 1, s1, 1);
  for (int i = 0; i < 3; ++i) {
    t.connect(t.add_host("a" + std::to_string(i)), 0, s0,
              static_cast<topo::Port>(2 + i));
    t.connect(t.add_host("b" + std::to_string(i)), 0, s1,
              static_cast<topo::Port>(2 + i));
  }
  auto routes = routing::compute_routes(t, routing::EngineKind::kUpDown);
  // Force the direction split: every s0->s1 crossing rides w0, every
  // s1->s0 crossing rides w1.
  for (auto& [key, route] : routes.routes) {
    for (std::size_t h = 0; h < route.wires.size(); ++h) {
      if (route.wires[h] != w0 && route.wires[h] != w1) {
        continue;
      }
      const bool s0_to_s1 = route.nodes[h] == s0;
      route.wires[h] = s0_to_s1 ? w0 : w1;
    }
    routing::recompute_turns(t, route);
  }
  // Declare the split as the engine's plan (9 routes per direction).
  const auto count = [&](topo::WireId w, bool a_to_b) {
    std::size_t n = 0;
    for (const auto& [key, route] : routes.routes) {
      for (std::size_t h = 0; h < route.wires.size(); ++h) {
        const topo::Wire& wire = t.wire(route.wires[h]);
        if (route.wires[h] == w && (wire.a.node == route.nodes[h]) == a_to_b) {
          ++n;
        }
      }
    }
    return n;
  };
  for (const topo::WireId w : {w0, w1}) {
    routes.meta.cable_plan[{w, true}] = count(w, true);
    routes.meta.cable_plan[{w, false}] = count(w, false);
  }

  const auto count_sl403 = [](const analysis::AnalysisResult& r) {
    std::size_t n = 0;
    for (const auto& d : r.report.diagnostics()) {
      if (d.code == "SL403") {
        ++n;
      }
    }
    return n;
  };
  // Plan-aware: jointly balanced, no finding.
  EXPECT_EQ(count_sl403(analysis::analyze(t, routes)), 0u);

  // Fail-before-fix: without the plan the historical per-direction
  // heuristic (the only path the old lint ever took) flags the split.
  auto unplanned = routes;
  unplanned.meta.cable_plan.clear();
  EXPECT_GT(count_sl403(analysis::analyze(t, unplanned)), 0u);

  // And a table that diverges from its declared plan is a finding again.
  auto diverged = routes;
  diverged.meta.cable_plan[{w0, true}] += 3;
  EXPECT_GT(count_sl403(analysis::analyze(t, diverged)), 0u);
}

// Regression: self_heal_routes assumed every remap produced a map the
// engines could accept. A partial remap of a quarantined region (here: the
// severed s3 leaf of the quarantined-region corpus case, with the core —
// master included — missing) used to crash through the orientation's
// connectivity SANMAP_CHECK; it must escalate to a full recompute instead.
TEST(SelfHeal, EscalatesAnUnroutablePartialRemap) {
  const verify::ScenarioCase scenario = verify::read_case_file(
      std::string(SANMAP_CORPUS_DIR) + "/quarantined-region.sancase");
  const simnet::FaultSchedule schedule = scenario.schedule();
  simnet::Network net(scenario.network, scenario.collision);
  net.attach_faults(&schedule);

  // The severed region alone: s3 + its hosts. No master, not even the
  // core — exactly what a region-scoped remap would hand back.
  topo::Topology region = scenario.network;
  for (const topo::NodeId n : scenario.network.nodes()) {
    const std::string& name = scenario.network.name(n);
    if (name != "s3" && name != "h3" && name != "h4") {
      region.remove_node(n);
    }
  }
  // The full recompute: the core without the quarantined region (the
  // fabric as a fresh master session would map it mid-outage).
  topo::Topology core = scenario.network;
  for (const topo::NodeId n : scenario.network.nodes()) {
    const std::string& name = scenario.network.name(n);
    if (name == "s3" || name == "h3" || name == "h4") {
      core.remove_node(n);
    }
  }

  routing::SelfHealConfig config;
  config.master_name = "h0";
  int remaps = 0;
  const auto remap = [&](common::SimTime& clock) {
    clock += common::SimTime::ms(1);
    ++remaps;
    return remaps == 1 ? region : core;
  };
  // Start mid-outage (the uplink dies at 5ms, returns at 500ms).
  const auto result =
      routing::self_heal_routes(net, scenario.network, config, remap,
                                common::SimTime::ms(10));
  EXPECT_TRUE(result.converged);
  EXPECT_EQ(result.escalated_remaps, 1u);
  EXPECT_EQ(remaps, 2);
  EXPECT_GT(result.total_broken, 0u);
  EXPECT_FALSE(result.map.find_host("h3").has_value());
}

std::uint64_t fnv1a(const char* data, std::size_t size) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= static_cast<std::uint8_t>(data[i]);
    hash *= 1099511628211ULL;
  }
  return hash;
}

TEST(SnapshotCodec, V2CarriesEngineAndOptimizerProvenance) {
  const topo::Topology t = topo::now_subcluster(topo::Subcluster::kC, "C");
  service::SnapshotOptions options;
  options.engine = routing::EngineKind::kDfs;
  options.optimize = true;
  options.source = "test";
  const service::MapSnapshot snapshot =
      service::build_snapshot(t, options, common::SimTime::ms(7));
  EXPECT_TRUE(snapshot.deadlock_free);
  EXPECT_TRUE(snapshot.compliant);
  EXPECT_EQ(snapshot.routes.meta.engine, routing::EngineKind::kDfs);
  EXPECT_TRUE(snapshot.routes.meta.optimized);

  const std::string bytes = service::encode_snapshot(snapshot);
  const service::MapSnapshot decoded = service::decode_snapshot(bytes);
  EXPECT_EQ(decoded.options.engine, routing::EngineKind::kDfs);
  EXPECT_TRUE(decoded.options.optimize);
  EXPECT_EQ(decoded.routes.routes.size(), snapshot.routes.routes.size());
  EXPECT_EQ(decoded.routes.meta.engine, routing::EngineKind::kDfs);
}

TEST(SnapshotCodec, DecodesV1PayloadsWithDefaultProvenance) {
  // A v1 payload is the v2 payload minus the engine (u32) + optimize (u8)
  // bytes after `source`; splice them out of a default-options encoding and
  // rewrite the header so version, size, and checksum agree.
  const topo::Topology t = topo::now_subcluster(topo::Subcluster::kC, "C");
  const service::MapSnapshot snapshot =
      service::build_snapshot(t, {}, common::SimTime::ms(3));
  std::string bytes = service::encode_snapshot(snapshot);

  constexpr std::size_t kHeader = 8 + 4 + 8 + 8;
  const auto u32_at = [&](std::size_t pos) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<std::uint8_t>(bytes[pos + static_cast<std::size_t>(
                                                         i)]))
           << (8 * i);
    }
    return v;
  };
  // Walk the payload to the splice point: epoch + created + seed, then two
  // length-prefixed strings.
  std::size_t pos = kHeader + 8 + 8 + 8;
  pos += 4 + u32_at(pos);  // root_name
  pos += 4 + u32_at(pos);  // source
  bytes.erase(pos, 5);

  const auto put_u32 = [&](std::size_t at, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes[at + static_cast<std::size_t>(i)] =
          static_cast<char>((v >> (8 * i)) & 0xffu);
    }
  };
  const auto put_u64 = [&](std::size_t at, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      bytes[at + static_cast<std::size_t>(i)] =
          static_cast<char>((v >> (8 * i)) & 0xffu);
    }
  };
  put_u32(8, 1);  // version
  put_u64(12, bytes.size() - kHeader);
  put_u64(20, fnv1a(bytes.data() + kHeader, bytes.size() - kHeader));

  const service::MapSnapshot decoded = service::decode_snapshot(bytes);
  EXPECT_EQ(decoded.options.engine, routing::EngineKind::kUpDown);
  EXPECT_FALSE(decoded.options.optimize);
  EXPECT_EQ(decoded.routes.routes.size(), snapshot.routes.routes.size());
}

}  // namespace
