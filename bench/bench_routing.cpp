// The routing bench, in three sections.
//
// 1. Engine shoot-out: UP*/DOWN* (BFS order) vs the DFS-order load-aware
//    engine, raw and through the RouteOptimizer, on the paper's NOW
//    cluster (fig5) and the megafabric generators. §5.5 names the known
//    UP*/DOWN* weaknesses — "increased congestion about the root" and
//    strong topology dependence. The DFS engine routes over a different
//    total order with a load-aware tie-break, and the optimizer re-selects
//    among legal alternatives; this section quantifies what that buys:
//    per-engine channel-load distributions (max/mean), root funneling, and
//    path-length histograms.
// 2. §5.5 deadlock-free routes: no figure in the paper quantifies this
//    stage, but it is the system's deliverable ("the system computes
//    mutually deadlock-free routes and distributes them to all network
//    interfaces"). For a range of topologies, routed on the map the
//    Berkeley mapper produces: route counts, hop statistics, dominant-switch
//    relabelings, the channel-dependency acyclicity verdict, UP*/DOWN*
//    compliance, and full replay validation through the simulator.
// 3. §5.5/§6 routing study: UP*/DOWN* quality and its alternatives. It
//    quantifies the paper's qualitative claims: UP*/DOWN* concentrates
//    traffic about the root; its goodness is topology-dependent; the
//    dominant-switch relabeling recovers unusable switches; root placement
//    matters ("a strategically placed cable or two can re-root the
//    UP*/DOWN* tree"); and the spanning-tree baseline shows what ignoring
//    redundant links costs. Route-table distribution (§5.5's final step)
//    is timed at the end.
// 4. Scale: every host pair of the megafabric fat tree routed at 480, 960
//    and 1,920 switches (120 under --smoke), and both certificates built
//    from the per-destination table. Wall time per stage, the table's
//    bytes, the legality certificate's bytes and the process's peak RSS.
//    Routing is broken down by layer: "root s" is the UP*/DOWN* root
//    search (one multi-source BFS), "recount s" the pooled routed-pair
//    count, each timed again on its own, and "picks s" the rest of
//    "route s" (orientation labels, the pooled per-destination searches and
//    the serial picks). "summary s" is the one pooled pass over the trees
//    (routing::summarize: turns, hops, compliance) and "deadlock s" the
//    Kahn elimination over its turns.
//    "check s" times the independent checker (analysis::TableCheck, which
//    proves the table's structure, legality and dependency order entry by
//    entry in blocks of 64 destinations across the analysis thread count
//    printed above the table) and its two certificate checks; it is
//    reported, not gated.
//
// Self-gating (exit 1 on regression):
//  * every engine variant must certify (a deadlock-free certificate that
//    survives its independent checker, and order-compliant) on every bench
//    topology AND on every corpus scenario + both paper figures;
//  * on fig5 (NOW-100), the DFS engine — raw and optimized — must cut the
//    max channel load vs raw UP*/DOWN*, with the mean held within 2% (the
//    deliverable is the hotspot cut; the mean is total-hops-bound and moves
//    only in the noise);
//  * every §5.5 route set is deadlock-free, compliant and replays, and the
//    route tables reach every interface;
//  * at every scale point the table routes hosts x (hosts - 1) pairs and
//    certifies, and (full run) the 1,920-switch point routes and builds
//    both certificates in under 2 s.
//
// Flags: --smoke shrinks the megafabrics so CI finishes in seconds.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "analysis/certificates.hpp"
#include "analysis/table_check.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "routing/congestion.hpp"
#include "routing/deadlock.hpp"
#include "routing/distribute.hpp"
#include "routing/engine.hpp"
#include "routing/optimizer.hpp"
#include "routing/routes.hpp"
#include "routing/tree_routes.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "verify/scenario_case.hpp"

namespace {

using namespace sanmap;

struct Variant {
  std::string name;
  routing::EngineKind engine;
  bool optimize;
};

const std::vector<Variant> kVariants = {
    {"updown", routing::EngineKind::kUpDown, false},
    {"updown+opt", routing::EngineKind::kUpDown, true},
    {"dfs", routing::EngineKind::kDfs, false},
    {"dfs+opt", routing::EngineKind::kDfs, true},
};

struct Measured {
  routing::CongestionStats load;
  double mean_hops = 0.0;
  int max_hops = 0;
  /// hops -> route count.
  std::map<int, std::size_t> histogram;
  bool certified = false;
};

Measured measure(const topo::Topology& t, const Variant& v) {
  const routing::RoutingResult routes =
      routing::route(t, {.engine = v.engine, .optimize = v.optimize});
  Measured m;
  m.load = routing::channel_load(t, routes);
  const routing::TableSummary summary = routing::summarize(routes);
  m.mean_hops = summary.hops().mean;
  m.max_hops = summary.hops().max;
  routes.routes.for_each_route(
      [&](topo::NodeId, topo::NodeId, const routing::HostRoute& route) {
        ++m.histogram[route.hops()];
      });
  const auto certificate = analysis::build_deadlock_certificate(t, summary);
  m.certified = certificate.deadlock_free &&
                analysis::check_deadlock(t, routes, certificate) &&
                summary.compliant;
  return m;
}

std::string histogram_str(const std::map<int, std::size_t>& h) {
  std::string out;
  for (const auto& [hops, count] : h) {
    if (!out.empty()) {
      out += " ";
    }
    out += std::to_string(hops) + ":" + std::to_string(count);
  }
  return out;
}

/// Section 1: the engine shoot-out. Writes BENCH_routing.json; returns
/// whether its gates held.
bool engine_shootout(bool smoke) {
  std::cout << "=== routing engines: UP*/DOWN* (BFS) vs DFS load-aware, raw "
               "and optimized ===\n";
  bench::JsonReport report("routing");

  struct Case {
    std::string name;
    topo::Topology network;
  };
  std::vector<Case> cases;
  cases.push_back({"fig4-subcluster-C",
                   topo::now_subcluster(topo::Subcluster::kC, "C")});
  cases.push_back({"fig5-NOW-100", topo::now_cluster()});
  {
    topo::MegaFatTreeOptions mft;
    mft.leaf_switches = smoke ? 32 : 128;
    mft.hosts_per_leaf = 1;
    cases.push_back({"mega-fat-tree", topo::mega_fat_tree(mft)});
    common::Rng rng(7);
    topo::DragonflyishOptions dfly;
    dfly.groups = smoke ? 4 : 8;
    dfly.switches_per_group = 4;
    dfly.hosts_per_group = 2;
    cases.push_back({"dragonfly-ish", topo::dragonfly_ish(dfly, rng)});
    topo::MultiPodOptions pods;
    pods.pods = smoke ? 3 : 6;
    if (!smoke) {
      // Dense spine wiring caps pods * pod_roots at 8; window the spine
      // links instead so six pods fit.
      pods.spines = 4;
      pods.spine_uplinks = 2;
    }
    cases.push_back({"multi-pod", topo::multi_pod(pods)});
  }

  common::Table table({"Topology", "engine", "max load", "mean load",
                       "root share", "mean hops", "max", "certified"});
  bool all_certified = true;
  // fig5 loads for the self-gate.
  std::size_t fig5_updown_max = 0;
  double fig5_updown_mean = 0.0;
  std::map<std::string, Measured> fig5;
  for (const auto& c : cases) {
    for (const Variant& v : kVariants) {
      const Measured m = measure(c.network, v);
      all_certified = all_certified && m.certified;
      table.add_row({c.name, v.name, std::to_string(m.load.max_channel_load),
                     common::fmt(m.load.mean_channel_load, 2),
                     common::fmt(m.load.root_traffic_share, 3),
                     common::fmt(m.mean_hops, 2), std::to_string(m.max_hops),
                     m.certified ? "yes" : "NO"});
      const std::string key = c.name + "/" + v.name;
      report.add(key, "max_channel_load",
                 static_cast<double>(m.load.max_channel_load));
      report.add(key, "mean_channel_load", m.load.mean_channel_load);
      report.add(key, "root_traffic_share", m.load.root_traffic_share);
      report.add(key, "mean_hops", m.mean_hops);
      report.add(key, "max_hops", m.max_hops);
      report.add(key, "certified", m.certified ? 1 : 0);
      for (const auto& [hops, count] : m.histogram) {
        report.add(key, "paths_with_" + std::to_string(hops) + "_hops",
                   static_cast<double>(count));
      }
      if (c.name == "fig5-NOW-100") {
        fig5[v.name] = m;
        if (v.name == "updown") {
          fig5_updown_max = m.load.max_channel_load;
          fig5_updown_mean = m.load.mean_channel_load;
        }
      }
    }
  }
  std::cout << table << "\n";
  for (const auto& [name, m] : fig5) {
    std::cout << "fig5 " << name << " path-length histogram: "
              << histogram_str(m.histogram) << "\n";
  }

  // Certification sweep over the scenario corpus (includes both paper
  // figures as fig4-subcluster-c.sancase + the fig5 case above): the DFS
  // engine must certify everywhere UP*/DOWN* does.
  std::size_t corpus_cases = 0;
  bool corpus_certified = true;
  namespace fs = std::filesystem;
  std::vector<fs::path> case_files;
  for (const auto& entry : fs::directory_iterator(fs::path(SANMAP_CORPUS_DIR))) {
    if (entry.path().extension() == ".sancase") {
      case_files.push_back(entry.path());
    }
  }
  std::sort(case_files.begin(), case_files.end());
  for (const fs::path& path : case_files) {
    const verify::ScenarioCase scenario =
        verify::read_case_file(path.string());
    // Routes over the mapper-visible component, compacted: the same map a
    // scenario's mapper would hand the router.
    const topo::Topology& fabric = scenario.network;
    const topo::Topology local =
        topo::component_of(fabric, fabric.hosts().front()).compacted();
    if (local.num_switches() < 1 || local.num_hosts() < 1) {
      continue;
    }
    ++corpus_cases;
    for (const Variant& v : kVariants) {
      const Measured m = measure(local, v);
      if (!m.certified) {
        corpus_certified = false;
        std::cout << "CORPUS FAILURE: " << path.filename().string() << " / "
                  << v.name << " did not certify\n";
      }
    }
  }
  std::cout << "corpus: " << corpus_cases << " scenario cases, all variants "
            << (corpus_certified ? "certified" : "FAILED to certify") << "\n";
  report.add("corpus", "cases", static_cast<double>(corpus_cases));
  report.add("corpus", "all_certified", corpus_certified ? 1 : 0);

  // Self-gates.
  bool gates_ok = all_certified && corpus_certified && corpus_cases > 0;
  for (const std::string name : {"dfs", "dfs+opt"}) {
    const Measured& m = fig5.at(name);
    const bool cuts_max = m.load.max_channel_load < fig5_updown_max;
    const bool holds_mean =
        m.load.mean_channel_load <= fig5_updown_mean * 1.02;
    if (!cuts_max || !holds_mean) {
      std::cout << "GATE FAILURE: fig5 " << name << " max "
                << m.load.max_channel_load << " vs updown " << fig5_updown_max
                << ", mean " << m.load.mean_channel_load << " vs "
                << fig5_updown_mean << "\n";
      gates_ok = false;
    }
  }
  report.add("gate", "passed", gates_ok ? 1 : 0);
  report.write();
  std::cout << (gates_ok
                    ? "RESULT: all variants certified everywhere; DFS cuts "
                      "the fig5 max channel load vs raw UP*/DOWN*\n"
                    : "RESULT: FAILURE\n");
  return gates_ok;
}

/// Section 2: §5.5 route sets on mapped topologies. Returns whether every
/// set is deadlock-free, compliant, and replays.
bool updown_routes() {
  std::cout << "=== §5.5: UP*/DOWN* deadlock-free routes (computed on the "
               "mapped graph) ===\n";
  common::Table table({"Topology", "hosts", "switches", "routes",
                       "mean hops", "max", "relabel", "deps", "acyclic",
                       "compliant", "replayed"});

  struct Case {
    std::string name;
    topo::Topology network;
  };
  common::Rng rng(99);
  std::vector<Case> cases;
  cases.push_back({"subcluster C",
                   topo::now_subcluster(topo::Subcluster::kC, "C")});
  cases.push_back({"NOW-100", topo::now_cluster()});
  cases.push_back({"hypercube(4,1)", topo::hypercube(4, 1)});
  cases.push_back({"mesh 4x4", topo::mesh(4, 4, 1)});
  cases.push_back({"torus 4x4", topo::torus(4, 4, 1)});
  cases.push_back({"ring 8", topo::ring(8, 2)});
  cases.push_back({"random 12s/16h", topo::random_irregular(12, 16, 6, rng)});

  bool all_ok = true;
  for (const auto& c : cases) {
    // Route on the MAP the Berkeley algorithm produces, as the system does.
    const auto mapped = bench::run_berkeley(c.network);
    const auto routes = routing::compute_updown_routes(mapped.map);
    const auto analysis = routing::analyze_routes(mapped.map, routes);
    const routing::TableSummary summary = routing::summarize(routes);
    const bool compliant = summary.compliant;

    simnet::Network replay_net(mapped.map);
    std::size_t replayed = 0;
    routes.routes.for_each_route([&](topo::NodeId src, topo::NodeId dst,
                                     const routing::HostRoute& route) {
      const auto r = replay_net.send(src, route.turns);
      if (r.delivered() && r.destination == dst) {
        ++replayed;
      }
    });
    const bool ok = analysis.deadlock_free && compliant &&
                    replayed == routes.routes.size();
    all_ok = all_ok && ok;
    const routing::HopSummary hops = summary.hops();
    table.add_row({c.name, std::to_string(mapped.map.num_hosts()),
                   std::to_string(mapped.map.num_switches()),
                   std::to_string(routes.routes.size()),
                   common::fmt(hops.mean, 2), std::to_string(hops.max),
                   std::to_string(routes.orientation.relabeled_switches()),
                   std::to_string(analysis.dependencies),
                   analysis.deadlock_free ? "yes" : "NO",
                   compliant ? "yes" : "NO",
                   std::to_string(replayed) + "/" +
                       std::to_string(routes.routes.size())});
  }
  std::cout << table << "\n"
            << (all_ok ? "RESULT: every route set is deadlock-free, "
                         "compliant, and replays correctly\n"
                       : "RESULT: FAILURE\n");
  return all_ok;
}

/// Section 3: routing strategies compared, then route-table distribution.
/// Returns whether the distribution reached every interface.
bool routing_strategies() {
  std::cout << "=== Routing strategy comparison (mean hops / max channel "
               "load / root share) ===\n";
  common::Table table({"Topology", "strategy", "mean hops", "max hops",
                       "max load", "root share", "acyclic"});

  struct Case {
    std::string name;
    topo::Topology network;
  };
  common::Rng rng(123);
  std::vector<Case> cases;
  cases.push_back({"NOW-100", topo::now_cluster()});
  // (torus 4x4 is omitted: C4 x C4 is graph-isomorphic to the 4-cube.)
  cases.push_back({"torus 5x4", topo::torus(5, 4, 1)});
  cases.push_back({"hypercube(4,1)", topo::hypercube(4, 1)});
  cases.push_back({"random 12s/16h", topo::random_irregular(12, 16, 8, rng)});
  {
    // A diamond with a host-free far corner: the textbook locally dominant
    // switch. Without the §5.5 relabeling every cross route squeezes
    // through the root; with it the corner carries half the load.
    topo::Topology diamond;
    const topo::NodeId r = diamond.add_switch("r");
    const topo::NodeId x = diamond.add_switch("x");
    const topo::NodeId y = diamond.add_switch("y");
    const topo::NodeId m = diamond.add_switch("m");
    diamond.connect(r, 0, x, 0);
    diamond.connect(r, 1, y, 0);
    diamond.connect(x, 1, m, 0);
    diamond.connect(y, 1, m, 1);
    for (int i = 0; i < 4; ++i) {
      const topo::NodeId hx = diamond.add_host("hx" + std::to_string(i));
      diamond.connect(hx, 0, x, static_cast<topo::Port>(2 + i));
      const topo::NodeId hy = diamond.add_host("hy" + std::to_string(i));
      diamond.connect(hy, 0, y, static_cast<topo::Port>(2 + i));
    }
    cases.push_back({"diamond (dominant m)", diamond});
  }

  for (const auto& c : cases) {
    const auto add = [&](const char* label,
                         const routing::RoutingResult& routes) {
      const auto stats = routing::channel_load(c.network, routes);
      const auto analysis = routing::analyze_routes(c.network, routes);
      const routing::HopSummary hops = routing::summarize(routes).hops();
      table.add_row({c.name, label, common::fmt(hops.mean, 2),
                     std::to_string(hops.max),
                     std::to_string(stats.max_channel_load),
                     common::fmt_percent(stats.root_traffic_share),
                     analysis.deadlock_free ? "yes" : "NO"});
    };

    add("UP*/DOWN* (far root)", routing::compute_updown_routes(c.network));

    routing::UpDownOptions no_fix;
    no_fix.fix_dominant_switches = false;
    add("UP*/DOWN* (no dominant fix)",
        routing::compute_updown_routes(c.network, no_fix));

    // Deliberately bad root: a leaf-most switch (nearest to hosts).
    routing::UpDownOptions bad_root;
    {
      int best = std::numeric_limits<int>::max();
      for (const topo::NodeId s : c.network.switches()) {
        int nearest = std::numeric_limits<int>::max();
        const auto dist = topo::bfs_distances(c.network, s);
        for (const topo::NodeId h : c.network.hosts()) {
          nearest = std::min(nearest, dist[h]);
        }
        if (nearest < best) {
          best = nearest;
          bad_root.root = s;
        }
      }
    }
    add("UP*/DOWN* (bad root)",
        routing::compute_updown_routes(c.network, bad_root));

    add("spanning tree", routing::compute_tree_routes(c.network));
    table.add_rule();
  }
  std::cout << table << "\n";

  std::cout << "=== §5.5 route-table distribution (NOW-100, master = "
               "C.util) ===\n";
  const topo::Topology now = topo::now_cluster();
  const auto routes = routing::compute_updown_routes(now);
  simnet::Network net(now);
  const auto dist = routing::distribute_tables(
      net, routes, *now.find_host("C.util"));
  std::cout << "tables   : " << dist.messages << " messages, " << dist.bytes
            << " bytes, " << dist.elapsed.str() << ", "
            << (dist.complete ? "all delivered" : "INCOMPLETE") << "\n";
  return dist.complete;
}

/// Section 4: route and certify all host pairs of ever larger fat trees.
/// Returns whether every point certified and, on the full run, the largest
/// stayed within its time budget.
bool scale(bool smoke) {
  std::cout << "=== Scale: route every host pair and build both "
               "certificates (megafabric fat tree) ===\n";
  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  constexpr double kBudgetS = 2.0;
  bench::JsonReport report("routing_scale");
  std::cout << "analysis threads: " << common::ThreadPool::default_size()
            << "\n";
  common::Table table({"switches", "hosts", "route s", "root s", "picks s",
                       "recount s", "legality s", "summary s", "deadlock s",
                       "total s", "check s", "table MiB", "legality MiB",
                       "peak RSS MiB", "certified"});
  bool ok = true;
  const std::vector<int> leaves =
      smoke ? std::vector<int>{64} : std::vector<int>{256, 512, 1024};
  for (const int leaf_switches : leaves) {
    topo::MegaFatTreeOptions options;
    options.leaf_switches = leaf_switches;
    const topo::Topology t = topo::mega_fat_tree(options);

    const Clock::time_point start = Clock::now();
    routing::RoutingResult routes =
        routing::compute_routes(t, routing::EngineKind::kUpDown);
    const double route_s = seconds_since(start);
    const Clock::time_point legality_start = Clock::now();
    const analysis::LegalityCertificate legality =
        analysis::build_legality_certificate(t, routes);
    const double legality_s = seconds_since(legality_start);
    const Clock::time_point summary_start = Clock::now();
    const routing::TableSummary summary = routing::summarize(routes);
    const double summary_s = seconds_since(summary_start);
    const Clock::time_point deadlock_start = Clock::now();
    const analysis::DeadlockCertificate deadlock =
        analysis::build_deadlock_certificate(t, summary);
    const double deadlock_s = seconds_since(deadlock_start);
    const double total_s = seconds_since(start);

    // Two of compute_routes' layers again, each on its own.
    const Clock::time_point root_start = Clock::now();
    (void)topo::switch_farthest_from_hosts(t);
    const double root_s = seconds_since(root_start);
    const Clock::time_point recount_start = Clock::now();
    routes.routes.recount();  // idempotent: the count is the entries
    const double recount_s = seconds_since(recount_start);
    const double picks_s = std::max(0.0, route_s - root_s - recount_s);
    const Clock::time_point check_start = Clock::now();
    common::CallPool pool;
    const analysis::TableCheck check(t, routes.routes, legality.labels, pool);
    const bool checked = check.check(legality) && check.check(deadlock);
    const double check_s = seconds_since(check_start);

    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const double peak_mib = static_cast<double>(usage.ru_maxrss) / 1024.0;
    const double table_mib =
        static_cast<double>(routes.routes.bytes()) / (1024.0 * 1024.0);
    const double legality_mib =
        static_cast<double>(
            legality.labels.capacity() * sizeof(int) +
            legality.illegal.capacity() * sizeof(analysis::IllegalRoute)) /
        (1024.0 * 1024.0);
    const std::size_t hosts = t.num_hosts();
    const bool certified = routes.routes.size() == hosts * (hosts - 1) &&
                           legality.all_legal() && deadlock.deadlock_free;
    const bool in_budget =
        smoke || leaf_switches != leaves.back() || total_s < kBudgetS;
    ok = ok && certified && in_budget;
    table.add_row({std::to_string(t.num_switches()), std::to_string(hosts),
                   common::fmt(route_s, 3), common::fmt(root_s, 4),
                   common::fmt(picks_s, 3), common::fmt(recount_s, 3),
                   common::fmt(legality_s, 3), common::fmt(summary_s, 3),
                   common::fmt(deadlock_s, 3), common::fmt(total_s, 3),
                   common::fmt(check_s, 3), common::fmt(table_mib, 2),
                   common::fmt(legality_mib, 1), common::fmt(peak_mib, 1),
                   certified ? "yes" : "NO"});
    const std::string key = "fattree-" + std::to_string(t.num_switches());
    report.add(key, "route_s", route_s);
    report.add(key, "root_s", root_s);
    report.add(key, "picks_s", picks_s);
    report.add(key, "recount_s", recount_s);
    report.add(key, "legality_s", legality_s);
    report.add(key, "summary_s", summary_s);
    report.add(key, "deadlock_s", deadlock_s);
    report.add(key, "total_s", total_s);
    report.add(key, "check_s", check_s);
    report.add(key, "analysis_threads",
               static_cast<double>(common::ThreadPool::default_size()));
    report.add(key, "table_bytes", static_cast<double>(routes.routes.bytes()));
    report.add(key, "peak_rss_mib", peak_mib);
    report.add(key, "certified", certified ? 1 : 0);
    if (!checked) {
      std::cout << "note: a checker rejected the certificates at "
                << t.num_switches() << " switches\n";
    }
    if (!in_budget) {
      std::cout << "GATE FAILURE: " << t.num_switches() << " switches took "
                << common::fmt(total_s, 3) << " s, over the "
                << common::fmt(kBudgetS, 1) << " s budget\n";
    }
  }
  report.write();
  std::cout << table << "\n"
            << (ok ? "RESULT: every scale point certified within budget\n"
                   : "RESULT: FAILURE\n");
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  const bool engines_ok = engine_shootout(smoke);
  std::cout << "\n";
  const bool updown_ok = updown_routes();
  std::cout << "\n";
  const bool strategies_ok = routing_strategies();
  std::cout << "\n";
  const bool scale_ok = scale(smoke);
  return engines_ok && updown_ok && strategies_ok && scale_ok ? 0 : 1;
}

