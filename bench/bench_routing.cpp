// Engine shoot-out: UP*/DOWN* (BFS order) vs the DFS-order load-aware
// engine, raw and through the RouteOptimizer, on the paper's NOW cluster
// (fig5) and the megafabric generators.
//
// §5.5 names the known UP*/DOWN* weaknesses — "increased congestion about
// the root" and strong topology dependence. The DFS engine routes over a
// different total order with a load-aware tie-break, and the optimizer
// re-selects among legal alternatives; this bench quantifies what that buys:
// per-engine channel-load distributions (max/mean), root funneling, and
// path-length histograms.
//
// Self-gating (exit 1 on regression):
//  * every engine variant must certify (a deadlock-free certificate that
//    survives its independent checker, and order-compliant) on every bench
//    topology AND on every corpus scenario + both paper figures;
//  * on fig5 (NOW-100), the DFS engine — raw and optimized — must cut the
//    max channel load vs raw UP*/DOWN*, with the mean held within 2% (the
//    deliverable is the hotspot cut; the mean is total-hops-bound and moves
//    only in the noise).
//
// Flags: --smoke shrinks the megafabrics so CI finishes in seconds.
#include <algorithm>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "analysis/certificates.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "routing/congestion.hpp"
#include "routing/deadlock.hpp"
#include "routing/engine.hpp"
#include "routing/optimizer.hpp"
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

/// Routes over the mapper-visible component, compacted — the same map a
/// scenario's mapper would hand the router.
topo::Topology routable_component(const topo::Topology& t) {
  topo::Topology local = t;
  std::vector<int> component;
  topo::components(local, component);
  const topo::NodeId anchor = local.hosts().front();
  for (const topo::NodeId n : local.nodes()) {
    if (component[n] != component[anchor]) {
      local.remove_node(n);
    }
  }
  return local.compacted();
}

struct Measured {
  routing::CongestionStats load;
  double mean_hops = 0.0;
  int max_hops = 0;
  /// hops -> route count.
  std::map<int, std::size_t> histogram;
  bool certified = false;
};

Measured measure(const topo::Topology& t, const Variant& v) {
  routing::RoutingResult routes = routing::compute_routes(t, v.engine);
  if (v.optimize) {
    routing::optimize_routes(t, routes);
  }
  Measured m;
  m.load = routing::channel_load(t, routes);
  m.mean_hops = routes.mean_hops();
  m.max_hops = routes.max_hops();
  for (const auto& [key, route] : routes.routes) {
    ++m.histogram[static_cast<int>(route.hops())];
  }
  const auto certificate = analysis::build_deadlock_certificate(t, routes);
  m.certified = certificate.deadlock_free &&
                analysis::check_deadlock(t, routes, certificate) &&
                routing::updown_compliant(routes);
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

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }

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
    const topo::Topology local = routable_component(scenario.network);
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
  return gates_ok ? 0 : 1;
}
