// The entry-local table checker (analysis::TableCheck) against the
// brute-force route walk (reference_walk.hpp), finding for finding.
//
// On every table below both must store the same structure findings (codes,
// locations, messages, counts and suppression), agree on soundness and the
// route count, and give the same verdict and the same `why` lines on the
// builders' certificates and on tampered ones. The tables cover every
// corpus case, 300 seeded random fabrics, 100–600-node generated fabrics
// (several 64-destination blocks each), the 64-leaf megafattree,
// --sabotage-turn tables and hand-broken ones: loops, cleared entries, an
// entry into the wrong host, tampered labels and tampered Kahn orders.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/certificates.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/lints.hpp"
#include "analysis/table_check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "reference_walk.hpp"
#include "routing/engine.hpp"
#include "routing/routes.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "verify/scenario_case.hpp"

namespace {

using namespace sanmap;
namespace fs = std::filesystem;

void expect_same_findings(const analysis::DiagnosticReport& got,
                          const analysis::DiagnosticReport& want) {
  ASSERT_EQ(got.diagnostics().size(), want.diagnostics().size())
      << got.text() << "\nvs\n" << want.text();
  for (std::size_t i = 0; i < got.diagnostics().size(); ++i) {
    const auto& a = got.diagnostics()[i];
    const auto& b = want.diagnostics()[i];
    EXPECT_EQ(std::tie(a.code, a.severity, a.location, a.message, a.hint),
              std::tie(b.code, b.severity, b.location, b.message, b.hint))
        << "finding " << i;
  }
  for (const auto& info : analysis::code_registry()) {
    EXPECT_EQ(got.count(info.code), want.count(info.code)) << info.code;
    EXPECT_EQ(got.suppressed(info.code), want.suppressed(info.code))
        << info.code;
  }
  EXPECT_EQ(got.errors(), want.errors());
  EXPECT_EQ(got.warnings(), want.warnings());
  EXPECT_EQ(got.infos(), want.infos());
}

/// Both checkers' verdict and why lines on one certificate; returns the
/// checker's verdict.
template <typename Certificate>
bool expect_same_verdict(const analysis::TableCheck& check,
                         const reference::Walk& walk,
                         const Certificate& cert, const std::string& what) {
  std::vector<std::string> got;
  std::vector<std::string> want;
  const bool verdict = check.check(cert, &got);
  EXPECT_EQ(verdict, walk.check(cert, &want)) << what;
  EXPECT_EQ(got, want) << what;
  return verdict;
}

/// What both checkers found on one table.
struct Verdicts {
  bool sound = false;
  /// Whether the builders' certificates held, and whether some route is
  /// illegal under the checkers' labels.
  bool certified = false;
  bool illegal = false;
};

/// Holds the checker to the walk on `routes` under `labels`: structure
/// findings, soundness and route count, then the verdict and why lines on
/// the builders' certificates and on tampered copies of them.
Verdicts expect_equivalent(const topo::Topology& t,
                           const routing::RoutingResult& routes,
                           const std::vector<int>& labels) {
  common::CallPool pool;
  const analysis::TableCheck check(t, routes.routes, labels, pool);
  const reference::Walk walk = reference::walk_routes(t, routes.routes, labels);
  Verdicts verdicts;
  verdicts.sound = walk.sound;
  expect_same_findings(check.structure(), walk.structure);
  EXPECT_EQ(check.sound(), walk.sound);
  if (!walk.sound || !check.sound()) {
    expect_same_verdict(check, walk, analysis::LegalityCertificate{},
                        "legality, broken table");
    expect_same_verdict(check, walk, analysis::DeadlockCertificate{},
                        "deadlock, broken table");
    return verdicts;
  }
  EXPECT_EQ(check.routes(), walk.routes);

  const analysis::LegalityCertificate legality =
      analysis::build_legality_certificate(t, routes, pool);
  const analysis::DeadlockCertificate deadlock =
      analysis::build_deadlock_certificate(t, routes);
  verdicts.certified =
      check.check(legality) && check.check(deadlock) && walk.check(legality);
  expect_same_verdict(check, walk, legality, "legality as built");
  expect_same_verdict(check, walk, deadlock, "deadlock as built");

  // Under the checkers' own labels: an empty list makes both name every
  // illegal route they derive, so equal lines mean equal derivations.
  analysis::LegalityCertificate claim = legality;
  claim.labels = labels;
  claim.illegal.clear();
  std::vector<std::string> why;
  verdicts.illegal = !walk.check(claim, &why);
  expect_same_verdict(check, walk, claim, "all legal claimed");
  const std::vector<topo::NodeId>& hosts = routes.routes.hosts();
  if (hosts.size() >= 2) {
    auto wrong = legality;
    wrong.illegal.insert(wrong.illegal.begin(),
                         {hosts.front(), hosts.back(), 0});
    EXPECT_FALSE(expect_same_verdict(check, walk, wrong, "fabricated offense"));
  }
  if (!legality.illegal.empty()) {
    auto wrong = legality;
    wrong.illegal.back().offending_hop += 1;
    expect_same_verdict(check, walk, wrong, "shifted offense");
    wrong = legality;
    std::reverse(wrong.illegal.begin(), wrong.illegal.end());
    expect_same_verdict(check, walk, wrong, "illegal routes out of order");
  }
  {
    auto wrong = legality;
    wrong.labels.front() += 1;
    EXPECT_FALSE(
        expect_same_verdict(check, walk, wrong, "tampered certificate label"));
  }

  {
    auto wrong = deadlock;
    wrong.dependencies += 1;
    EXPECT_FALSE(expect_same_verdict(check, walk, wrong, "dependency count"));
  }
  if (deadlock.deadlock_free && deadlock.topological_order.size() >= 2) {
    auto wrong = deadlock;
    std::reverse(wrong.topological_order.begin(),
                 wrong.topological_order.end());
    EXPECT_FALSE(expect_same_verdict(check, walk, wrong, "reversed order"));
    wrong = deadlock;
    wrong.topological_order.pop_back();
    EXPECT_FALSE(expect_same_verdict(check, walk, wrong, "truncated order"));
    wrong = deadlock;
    std::swap(wrong.topological_order.front(),
              wrong.topological_order.back());
    expect_same_verdict(check, walk, wrong, "swapped order");
    wrong = deadlock;
    wrong.topological_order.push_back(wrong.topological_order.front());
    EXPECT_FALSE(expect_same_verdict(check, walk, wrong, "repeated channel"));
  }
  if (!deadlock.deadlock_free) {
    auto wrong = deadlock;
    std::reverse(wrong.cycle.begin(), wrong.cycle.end());
    expect_same_verdict(check, walk, wrong, "reversed cycle");
    wrong = deadlock;
    wrong.cycle.clear();
    EXPECT_FALSE(expect_same_verdict(check, walk, wrong, "cycle dropped"));
  }
  return verdicts;
}

Verdicts expect_equivalent(const topo::Topology& t,
                           const routing::RoutingResult& routes) {
  return expect_equivalent(t, routes, analysis::legality_labels(t, routes));
}

/// Rewrites the entries toward every third destination so that the walk
/// from one far source's switch loops between it and a neighbour, and
/// clears one state's entry toward every fifth: loops the structure lints
/// name (SL103, a path that never reaches its destination) and pairs that
/// drop out of the table, spread over every block.
void break_table(routing::RoutingResult& routes) {
  routing::RouteTable& table = routes.routes;
  const auto n = static_cast<std::uint32_t>(table.hosts().size());
  for (std::uint32_t j = 0; j < n; j += 3) {
    // Out of the source's switch over its first link, back over the same
    // wire, out again and back again: the last entry closes the loop.
    const std::uint32_t start = table.start((j * 7 + 5) % n);
    const topo::WireId w = table.links(start / 2).front().wire;
    std::uint32_t x = start;
    for (int step = 0; step < 4; ++step) {
      table.set_entry(j, x, w);
      x = table.hop(x, w).state;
    }
  }
  for (std::uint32_t j = 1; j < n; j += 5) {
    table.set_entry(j, table.start((j * 11 + 3) % n), topo::kInvalidWire);
  }
  table.recount();
}

/// Clears the entry every route toward every fourth destination starts
/// with from one source's switch: those pairs drop out of the table.
void clear_entries(routing::RoutingResult& routes) {
  routing::RouteTable& table = routes.routes;
  const auto n = static_cast<std::uint32_t>(table.hosts().size());
  for (std::uint32_t j = 0; j < n; j += 4) {
    table.set_entry(j, table.start((j + 1) % n), topo::kInvalidWire);
  }
  table.recount();
}

/// Points the last hop toward one destination into another host on the
/// same switch. Returns false when no destination shares its switch.
bool misdeliver(const topo::Topology& t, routing::RoutingResult& routes) {
  routing::RouteTable& table = routes.routes;
  for (std::uint32_t j = 0; j < table.hosts().size(); ++j) {
    const topo::NodeId dst = table.hosts()[j];
    for (std::uint32_t x = 0; x < table.num_states(); ++x) {
      const topo::WireId w = table.next(j, x);
      if (w == topo::kInvalidWire || table.hop(x, w).to != dst) {
        continue;
      }
      for (const topo::PortRef& nb : t.neighbors(table.state_switch(x))) {
        if (t.is_host(nb.node) && nb.node != dst) {
          table.set_entry(j, x, *t.wire_at(nb.node, nb.port));
          table.recount();
          return true;
        }
      }
    }
  }
  return false;
}

/// The table's labels reversed: every move the table's senses call up is
/// down under them, so the table's state phases disagree with the labels
/// on every route that climbs before it descends.
std::vector<int> reversed_labels(const topo::Topology& t,
                                 const routing::RoutingResult& routes) {
  std::vector<int> labels = analysis::legality_labels(t, routes);
  for (int& label : labels) {
    label = -label;
  }
  return labels;
}

TEST(TableCheck, MatchesTheWalkOnEveryCorpusCase) {
  std::vector<fs::path> cases;
  for (const auto& entry :
       fs::directory_iterator(fs::path(SANMAP_CORPUS_DIR))) {
    if (entry.path().extension() == ".sancase") {
      cases.push_back(entry.path());
    }
  }
  std::sort(cases.begin(), cases.end());
  ASSERT_FALSE(cases.empty());
  for (const fs::path& path : cases) {
    SCOPED_TRACE(path.filename().string());
    // The component a mapper on the first host would discover, compacted:
    // what `sanmap lint` routes over.
    const topo::Topology fabric = verify::read_case_file(path.string()).network;
    const topo::Topology t =
        topo::component_of(fabric, fabric.hosts().front()).compacted();
    if (t.num_switches() == 0 || t.num_hosts() < 2) {
      continue;
    }
    for (const auto engine :
         {routing::EngineKind::kUpDown, routing::EngineKind::kDfs}) {
      const routing::RoutingResult routes =
          routing::compute_routes(t, engine, {}, 1);
      EXPECT_TRUE(expect_equivalent(t, routes).certified);
      auto sabotaged = routes;
      if (!analysis::inject_down_up_turn(t, sabotaged).empty()) {
        const Verdicts verdicts = expect_equivalent(t, sabotaged);
        EXPECT_TRUE(verdicts.illegal);
        EXPECT_TRUE(verdicts.certified);
      }
    }
  }
}

TEST(TableCheck, MatchesTheWalkOnSeededRandomFabrics) {
  for (std::uint64_t seed = 1; seed <= 300; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    common::Rng rng(seed);
    const int switches = 3 + static_cast<int>(rng.below(8));
    const int hosts = 2 + static_cast<int>(rng.below(6));
    const int extra = static_cast<int>(rng.below(6));
    const topo::Topology t =
        topo::random_irregular(switches, hosts, extra, rng);
    const auto engine = seed % 3 == 0 ? routing::EngineKind::kDfs
                                      : routing::EngineKind::kUpDown;
    auto routes = routing::compute_routes(t, engine, {}, seed);
    ASSERT_TRUE(expect_equivalent(t, routes).certified);
    if (seed % 5 == 0 && !analysis::inject_down_up_turn(t, routes).empty()) {
      EXPECT_TRUE(expect_equivalent(t, routes).illegal);
    }
  }
}

TEST(TableCheck, MatchesTheWalkAcrossManyBlocks) {
  // 110 to 600 nodes, 70 to 300 hosts: two to five blocks of 64
  // destinations, with a bridged tail (a non-empty F) on two of them.
  struct Fabric {
    std::string name;
    topo::Topology t;
  };
  std::vector<Fabric> fabrics;
  common::Rng rng(2024);
  fabrics.push_back({"irregular-110", topo::random_irregular(40, 70, 12, rng)});
  fabrics.push_back(
      {"irregular-300", topo::random_irregular(130, 170, 40, rng)});
  fabrics.push_back(
      {"irregular-600", topo::random_irregular(300, 300, 80, rng)});
  fabrics.push_back({"tail-250", topo::with_switch_tail(100, 140, 8, rng)});
  fabrics.push_back({"tail-450", topo::with_switch_tail(180, 250, 16, rng)});
  for (const Fabric& fabric : fabrics) {
    SCOPED_TRACE(fabric.name);
    const topo::Topology t =
        topo::component_of(fabric.t, fabric.t.hosts().front()).compacted();
    ASSERT_GT(t.num_hosts(), 64u);
    const auto clean =
        routing::compute_routes(t, routing::EngineKind::kUpDown, {}, 3);
    EXPECT_TRUE(expect_equivalent(t, clean).certified);
    const auto dfs = routing::compute_routes(t, routing::EngineKind::kDfs);
    EXPECT_TRUE(expect_equivalent(t, dfs).certified);

    auto sabotaged = clean;
    ASSERT_FALSE(analysis::inject_down_up_turn(t, sabotaged).empty());
    EXPECT_TRUE(expect_equivalent(t, sabotaged).illegal);
    auto cleared = clean;
    clear_entries(cleared);
    ASSERT_LT(cleared.routes.size(), clean.routes.size());
    EXPECT_TRUE(expect_equivalent(t, cleared).certified);
    auto broken = clean;
    break_table(broken);
    EXPECT_FALSE(expect_equivalent(t, broken).sound);
    auto misdelivered = clean;
    ASSERT_TRUE(misdeliver(t, misdelivered));
    EXPECT_FALSE(expect_equivalent(t, misdelivered).sound);
    // Phases from the labels, not from the table's state index.
    const Verdicts relabeled =
        expect_equivalent(t, clean, reversed_labels(t, clean));
    EXPECT_TRUE(relabeled.illegal);
    EXPECT_FALSE(relabeled.certified);
  }
}

TEST(TableCheck, MatchesTheWalkOnTheMegaFatTree) {
  // 128 hosts: two blocks of destinations.
  topo::MegaFatTreeOptions options;
  options.leaf_switches = 64;
  const topo::Topology t = topo::mega_fat_tree(options);
  ASSERT_GT(t.num_hosts(), 64u);
  const auto clean = routing::compute_updown_routes(t, {}, 1);
  auto sabotaged = clean;
  ASSERT_FALSE(analysis::inject_down_up_turn(t, sabotaged).empty());
  auto broken = clean;
  break_table(broken);

  EXPECT_TRUE(expect_equivalent(t, clean).certified);
  const Verdicts sabotage = expect_equivalent(t, sabotaged);
  EXPECT_TRUE(sabotage.illegal);
  EXPECT_TRUE(sabotage.certified);
  EXPECT_FALSE(expect_equivalent(t, broken).sound);

  // analyze() stores the walk's findings: the structure findings and SL001
  // on the broken table, one SL101 per illegal route on the sabotaged one.
  const routing::RoutingResult* const tables[] = {&clean, &sabotaged,
                                                  &broken};
  for (const routing::RoutingResult* routes : tables) {
    const reference::Walk walk = reference::walk_routes(
        t, routes->routes, analysis::legality_labels(t, *routes));
    const analysis::AnalysisResult result = analysis::analyze(t, *routes);
    ASSERT_EQ(result.analyzed_routes, walk.sound);
    EXPECT_EQ(result.report.count("SL202"), 0u) << result.report.text();
    if (!walk.sound) {
      EXPECT_GT(walk.structure.count("SL103"), 20u);
      EXPECT_GT(walk.structure.suppressed("SL103"), 0u);
      analysis::DiagnosticReport want;
      analysis::lint_fabric(t, want);
      want.merge(walk.structure);
      want.add("SL001", "",
               "certificates and quality lints skipped: the route table is "
               "structurally broken",
               "");
      expect_same_findings(result.report, want);
      continue;
    }
    EXPECT_EQ(result.routes, walk.routes);
    std::size_t illegal = 0;
    for (const reference::RouteLegality& entry : walk.legality.routes()) {
      illegal += entry.legal ? 0u : 1u;
    }
    EXPECT_EQ(result.report.count("SL101"), illegal);
    EXPECT_EQ(result.legality.illegal.size(), illegal);
    EXPECT_EQ(illegal == 0, routes == &clean);
  }
}

}  // namespace
