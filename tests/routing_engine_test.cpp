// The routing engines: the DFS-order load-aware engine next to UP*/DOWN*,
// the deadlock certificate against its DFS cross-check, the
// RouteOptimizer, routing::route (an engine, then the optimizer when
// asked), and regressions — SL403 judging a direction-split trunk by its
// joint loads, and the snapshot codec carrying engine + optimizer
// provenance (and refusing v1 files, which lacked it).
#include <gtest/gtest.h>

#include <algorithm>
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
#include "routing/routes.hpp"
#include "service/map_catalog.hpp"
#include "service/snapshot.hpp"
#include "service/snapshot_codec.hpp"
#include "topology/generators.hpp"

namespace {

using namespace sanmap;

bool same_tables(const routing::RoutingResult& a,
                 const routing::RoutingResult& b) {
  if (a.routes.size() != b.routes.size()) {
    return false;
  }
  bool same = true;
  a.routes.for_each_route([&](topo::NodeId src, topo::NodeId dst,
                              const routing::HostRoute& route) {
    const routing::HostRoute other = b.route(src, dst);
    same = same && other.nodes == route.nodes &&
           other.wires == route.wires && other.turns == route.turns;
  });
  return same;
}

/// Full certification stack for a table: order compliance, both
/// analysis-layer certificates surviving their independent re-checkers, and
/// the three-color DFS agreeing that the dependency graph is acyclic.
::testing::AssertionResult certifies(const topo::Topology& t,
                                     const routing::RoutingResult& routes) {
  if (!routing::updown_compliant(routes)) {
    return ::testing::AssertionFailure() << "a down-to-up turn slipped in";
  }
  std::vector<std::string> why;
  const auto legality = analysis::build_legality_certificate(t, routes);
  if (!legality.all_legal() ||
      !analysis::check_legality(t, routes, legality, &why)) {
    return ::testing::AssertionFailure()
           << "legality certificate failed: "
           << (why.empty() ? "illegal route" : why.front());
  }
  const auto deadlock = analysis::build_deadlock_certificate(t, routes);
  if (!deadlock.deadlock_free ||
      !analysis::check_deadlock(t, routes, deadlock, &why)) {
    return ::testing::AssertionFailure()
           << "deadlock certificate failed: "
           << (why.empty() ? "cycle recorded" : why.front());
  }
  if (!routing::analyze_routes(t, routes).deadlock_free) {
    return ::testing::AssertionFailure() << "3-color DFS found a cycle";
  }
  return ::testing::AssertionSuccess();
}

TEST(Engine, NamesAndParsing) {
  EXPECT_STREQ(routing::to_string(routing::EngineKind::kUpDown), "updown");
  EXPECT_EQ(routing::parse_engine("dfs"), routing::EngineKind::kDfs);
  EXPECT_EQ(routing::parse_engine("updown"), routing::EngineKind::kUpDown);
  EXPECT_FALSE(routing::parse_engine("bfs").has_value());
  EXPECT_STREQ(routing::to_string(routing::EngineKind::kDfs), "dfs");
}

TEST(Engine, DfsCertifiesOnTheNowCluster) {
  const topo::Topology t = topo::now_cluster();
  const auto routes = routing::compute_routes(t, routing::EngineKind::kDfs);
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

// The 200-topology property sweep: for both engines, on the raw table and
// on the optimized one, the table is compliant, its Kahn-based deadlock
// certificate holds and survives check_deadlock, and the three-color DFS
// reaches the same verdict — two independent acyclicity algorithms, one
// verdict. The optimizer's single legality walk never reverts.
TEST(Engine, CertificateAndDfsAgreeOn200RandomTopologies) {
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
      auto routes = routing::compute_routes(t, kind, {}, seed);
      for (const bool optimized : {false, true}) {
        const std::string where = "seed " + std::to_string(seed) +
                                  " engine " + routing::to_string(kind) +
                                  (optimized ? " optimized" : " raw");
        if (optimized) {
          ASSERT_FALSE(routing::optimize_routes(t, routes).reverted) << where;
        }
        const auto cert = analysis::build_deadlock_certificate(t, routes);
        std::vector<std::string> why;
        ASSERT_TRUE(cert.deadlock_free) << where;
        ASSERT_TRUE(analysis::check_deadlock(t, routes, cert, &why))
            << where << ": " << (why.empty() ? "?" : why.front());
        ASSERT_EQ(routing::analyze_routes(t, routes).deadlock_free,
                  cert.deadlock_free)
            << where;
        ASSERT_TRUE(routing::updown_compliant(routes)) << where;
      }
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

TEST(Route, MatchesComputeRoutesThenOptimizeRoutes) {
  const topo::Topology t = topo::now_cluster();
  routing::UpDownOptions updown;
  updown.root = t.switches().back();
  for (const auto kind :
       {routing::EngineKind::kUpDown, routing::EngineKind::kDfs}) {
    for (const bool optimize : {false, true}) {
      const routing::RouteChoices choices{
          .engine = kind, .route_seed = 7, .optimize = optimize};
      routing::OptimizerReport report;
      const routing::RoutingResult routed =
          routing::route(t, choices, updown, &report);

      routing::RoutingResult expected =
          routing::compute_routes(t, kind, updown, 7);
      routing::OptimizerReport expected_report;
      if (optimize) {
        expected_report = routing::optimize_routes(t, expected);
      }
      const std::string label = std::string(routing::to_string(kind)) +
                                (optimize ? " optimized" : "");
      EXPECT_TRUE(std::ranges::equal(routed.routes.entries(),
                                     expected.routes.entries()))
          << label;
      EXPECT_EQ(routed.orientation.root(), *updown.root) << label;
      EXPECT_EQ(report.max_load_before, expected_report.max_load_before)
          << label;
      EXPECT_EQ(report.max_load_after, expected_report.max_load_after)
          << label;
      EXPECT_EQ(report.path_moves, expected_report.path_moves) << label;
      EXPECT_EQ(report.cable_moves, expected_report.cable_moves) << label;
      EXPECT_EQ(report.rounds, expected_report.rounds) << label;
      EXPECT_EQ(report.reverted, expected_report.reverted) << label;
    }
  }
}

TEST(Optimizer, RebalancesASkewedParallelTrunk) {
  // Two switches joined by two cables, three hosts a side: whatever the
  // seed dealt, the optimizer's cable pass must leave the trunk's joint
  // (both-direction) loads within the largest entry weight of each other —
  // it deals whole table entries, each routing every source behind it.
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
  routes.routes.for_each_route(
      [&](topo::NodeId, topo::NodeId, const routing::HostRoute& route) {
        for (const topo::WireId w : route.wires) {
          joint0 += w == w0 ? 1 : 0;
          joint1 += w == w1 ? 1 : 0;
        }
      });
  std::uint32_t heaviest = 0;
  const routing::RouteTable& table = routes.routes;
  table.for_each_tree([&](const routing::RouteTable::Tree& tree) {
    for (const std::uint32_t x : tree.order) {
      const topo::WireId w = table.next(tree.dst, x);
      if (w == w0 || w == w1) {
        heaviest = std::max(heaviest, tree.weight[x]);
      }
    }
  });
  ASSERT_GT(heaviest, 0u);
  const std::size_t hi = std::max(joint0, joint1);
  const std::size_t lo = std::min(joint0, joint1);
  EXPECT_LE(hi - lo, heaviest) << "trunk skew " << joint0 << " vs " << joint1;
}

// Regression (SL403): a deliberately direction-split deal — all a->b
// traffic on one cable, all b->a on its sibling — is jointly balanced. A
// per-direction check flagged it; the lint judges each cable's joint
// (both-direction) load on the table's own channel loads.
TEST(Lints, Sl403AcceptsADirectionSplitTrunk) {
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
  routing::RouteTable& table = routes.routes;
  for (std::uint32_t dst = 0; dst < table.hosts().size(); ++dst) {
    for (std::uint32_t x = 0; x < table.num_states(); ++x) {
      const topo::WireId w = table.next(dst, x);
      if (w == w0 || w == w1) {
        table.set_entry(dst, x, table.state_switch(x) == s0 ? w0 : w1);
      }
    }
  }
  table.recount();
  const auto loads = routing::channel_loads(t, routes);
  ASSERT_EQ(loads[routing::channel_slot(w0, true)], 9u);
  ASSERT_EQ(loads[routing::channel_slot(w0, false)], 0u);
  ASSERT_EQ(loads[routing::channel_slot(w1, true)], 0u);
  ASSERT_EQ(loads[routing::channel_slot(w1, false)], 9u);

  const analysis::AnalysisResult result = analysis::analyze(t, routes);
  EXPECT_EQ(result.report.count("SL403"), 0u) << result.report.text();
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
  service::MapSnapshot snapshot =
      service::build_snapshot(t, options, common::SimTime::ms(7));
  EXPECT_TRUE(service::certify(snapshot).clean());
  EXPECT_TRUE(snapshot.deadlock_free);
  EXPECT_TRUE(snapshot.compliant);

  const std::string bytes = service::encode_snapshot(snapshot);
  const service::MapSnapshot decoded = service::decode_snapshot(bytes);
  EXPECT_EQ(decoded.options.engine, routing::EngineKind::kDfs);
  EXPECT_TRUE(decoded.options.optimize);
  EXPECT_EQ(decoded.routes.routes.size(), snapshot.routes.routes.size());
  EXPECT_TRUE(decoded.deadlock_free);
  EXPECT_EQ(decoded.dependencies, snapshot.dependencies);
}

TEST(SnapshotCodec, RefusesV1PayloadsAsUnsupported) {
  // A v1 payload lacked the engine (u32) + optimize (u8) bytes after
  // `source`; splice them out of a default-options encoding and rewrite
  // the header so version, size, and checksum agree. Provenance defaults
  // are no longer guessed: the file is refused by version.
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

  try {
    service::decode_snapshot(bytes);
    ADD_FAILURE() << "a v1 snapshot decoded";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "snapshot: unsupported version 1");
  }
}

}  // namespace
