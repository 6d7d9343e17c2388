// Route-table goldens: every observable output of route emission and
// certification, pinned byte for byte.
//
// Each case is routed with three engine settings (UP*/DOWN* at seeds 1 and
// 7, and the DFS-preorder engine), each both as emitted and after
// optimize_routes. A variant's digest records what a consumer could see:
//   * every route's node path, wire choice and turn word (hashed per
//     source host, so a divergence names the source it starts at);
//   * the optimizer report and the table's load on every cable of a
//     parallel trunk (the "cable_plan" lines);
//   * the DeadlockAnalysis counts and both certificates (the Kahn order,
//     the witness cycle, and every route's apex/offense entry);
//   * analysis::to_json(analyze(...)) verbatim;
//   * the distribute_tables messages, bytes and elapsed virtual time;
//   * the encode_snapshot bytes (size and hash).
//
// Routes are built by walking the per-destination next-hop table, so these
// digests pin the table's entries: a seeded tie-break that sees one
// candidate more, fewer or in another order shows up here. A change meant
// to be pure performance must pass them without re-recording; a change to
// route selection re-records them in a commit of its own, once
// route_table_test (hop counts against the Floyd-Warshall reference)
// passes.
//
// Regenerating (only when a change deliberately alters route tables):
//   SANMAP_UPDATE_GOLDEN=1 ./build/tests/route_golden_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hpp"
#include "analysis/certificates.hpp"
#include "common/rng.hpp"
#include "routing/congestion.hpp"
#include "routing/deadlock.hpp"
#include "routing/distribute.hpp"
#include "routing/engine.hpp"
#include "routing/optimizer.hpp"
#include "routing/routes.hpp"
#include "service/snapshot.hpp"
#include "service/snapshot_codec.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "reference_walk.hpp"
#include "verify/scenario_case.hpp"

namespace sanmap {
namespace {

namespace fs = std::filesystem;

/// FNV-1a 64 over a stream of integers (each fed as 8 little-endian bytes).
class Fnv {
 public:
  void add(std::int64_t value) {
    auto bits = static_cast<std::uint64_t>(value);
    for (int i = 0; i < 8; ++i) {
      hash_ ^= bits & 0xffu;
      hash_ *= 0x100000001b3ull;
      bits >>= 8;
    }
  }
  void add_bytes(const std::string& bytes) {
    for (const char c : bytes) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 0x100000001b3ull;
    }
  }
  [[nodiscard]] std::string hex() const {
    std::ostringstream os;
    os << std::hex << hash_;
    return os.str();
  }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

struct Variant {
  const char* label;
  routing::EngineKind engine;
  std::uint64_t seed;
  bool optimize;
};

constexpr Variant kVariants[] = {
    {"updown seed 1 raw", routing::EngineKind::kUpDown, 1, false},
    {"updown seed 1 optimized", routing::EngineKind::kUpDown, 1, true},
    {"updown seed 7 raw", routing::EngineKind::kUpDown, 7, false},
    {"updown seed 7 optimized", routing::EngineKind::kUpDown, 7, true},
    {"dfs raw", routing::EngineKind::kDfs, 1, false},
    {"dfs optimized", routing::EngineKind::kDfs, 1, true},
};

/// Every cable joining two distinct switches that more cables join,
/// ascending by wire id.
std::vector<topo::WireId> parallel_trunk_cables(const topo::Topology& t) {
  std::map<std::pair<topo::NodeId, topo::NodeId>, std::vector<topo::WireId>>
      trunks;
  for (const topo::WireId w : t.wires()) {
    const topo::Wire& wire = t.wire(w);
    if (wire.a.node != wire.b.node && t.is_switch(wire.a.node) &&
        t.is_switch(wire.b.node)) {
      trunks[std::minmax(wire.a.node, wire.b.node)].push_back(w);
    }
  }
  std::vector<topo::WireId> cables;
  for (const auto& [pair, trunk] : trunks) {
    if (trunk.size() >= 2) {
      cables.insert(cables.end(), trunk.begin(), trunk.end());
    }
  }
  std::sort(cables.begin(), cables.end());
  return cables;
}

void digest_variant(const topo::Topology& t, const Variant& v,
                    std::ostream& os) {
  os << "variant " << v.label << "\n";
  routing::RoutingResult routes =
      routing::compute_routes(t, v.engine, {}, v.seed);
  if (v.optimize) {
    const routing::OptimizerReport opt = routing::optimize_routes(t, routes);
    os << "optimizer " << opt.max_load_before << ' ' << opt.max_load_after
       << ' ' << opt.path_moves << ' ' << opt.cable_moves << ' '
       << opt.rounds << ' ' << (opt.reverted ? "reverted" : "kept") << "\n";
  }
  os << "root " << t.name(routes.orientation.root()) << " routes "
     << routes.routes.size() << " max_hops "
     << routing::summarize(routes).hops().max << "\n";

  // Routes, hashed per source (the map is key-ordered, so each source's
  // routes are contiguous) and over the whole table.
  Fnv table;
  Fnv source;
  topo::NodeId current = topo::kInvalidNode;
  std::size_t count = 0;
  std::int64_t hops = 0;
  const auto flush = [&] {
    if (current != topo::kInvalidNode) {
      os << "source " << t.name(current) << ' ' << count << ' ' << hops << ' '
         << source.hex() << "\n";
    }
  };
  routes.routes.for_each_route([&](topo::NodeId src, topo::NodeId dst,
                                   const routing::HostRoute& route) {
    if (src != current) {
      flush();
      current = src;
      source = Fnv();
      count = 0;
      hops = 0;
    }
    ++count;
    hops += route.hops();
    for (Fnv* h : {&source, &table}) {
      h->add(dst);
      h->add(static_cast<std::int64_t>(route.nodes.size()));
      for (const topo::NodeId n : route.nodes) {
        h->add(n);
      }
      for (const topo::WireId w : route.wires) {
        h->add(w);
      }
      for (const auto turn : route.turns) {
        h->add(turn);
      }
    }
  });
  flush();
  os << "table " << table.hex() << "\n";

  const std::vector<topo::WireId> trunk_cables = parallel_trunk_cables(t);
  const std::vector<std::size_t> loads = routing::channel_loads(t, routes);
  os << "cable_plan " << 2 * trunk_cables.size() << "\n";
  for (const topo::WireId w : trunk_cables) {
    for (const bool a_to_b : {false, true}) {
      os << "  wire " << w << (a_to_b ? " a->b " : " b->a ")
         << loads[routing::channel_slot(w, a_to_b)] << "\n";
    }
  }

  const routing::DeadlockAnalysis deadlock =
      routing::analyze_routes(t, routes);
  os << "deadlock " << (deadlock.deadlock_free ? "free" : "cyclic")
     << " channels " << deadlock.channels << " dependencies "
     << deadlock.dependencies << " cycle " << deadlock.cycle.size() << "\n";

  const analysis::AnalysisResult result = analysis::analyze(t, routes);
  Fnv order;
  for (const routing::Channel& c : result.deadlock.topological_order) {
    order.add(c.wire);
    order.add(c.a_to_b ? 1 : 0);
  }
  for (const routing::Channel& c : result.deadlock.cycle) {
    order.add(c.wire);
    order.add(c.a_to_b ? 1 : 0);
  }
  // The legality digest covers the labels and every route's classification
  // under them (apex and first offense), as the brute-force walk derives
  // it; the certificate must name exactly the walk's illegal routes.
  Fnv legality;
  for (const int label : result.legality.labels) {
    legality.add(label);
  }
  const reference::Walk walk =
      reference::walk_routes(t, routes.routes, result.legality.labels);
  std::vector<std::string> why;
  EXPECT_TRUE(walk.check(result.legality, &why))
      << v.label << ": " << (why.empty() ? "" : why.front());
  for (const reference::RouteLegality& entry : walk.legality.routes()) {
    legality.add(entry.src);
    legality.add(entry.dst);
    legality.add(entry.apex_hop);
    legality.add(entry.legal ? 1 : 0);
    legality.add(entry.offending_hop);
  }
  os << "certificates order " << order.hex() << " legality "
     << legality.hex() << "\n";
  os << "analysis " << analysis::to_json(result) << "\n";

  simnet::Network net(t);
  const routing::DistributionResult dist =
      routing::distribute_tables(net, routes, t.hosts().front());
  os << "distribute messages " << dist.messages << " bytes " << dist.bytes
     << " elapsed_ns " << dist.elapsed.to_ns() << " complete "
     << (dist.complete ? 1 : 0) << "\n";

  const routing::TableSummary summary = routing::summarize(routes);
  service::SnapshotOptions options;
  options.route_seed = v.seed;
  options.source = "golden";
  options.engine = v.engine;
  options.optimize = v.optimize;
  const service::MapSnapshot snapshot{/*epoch=*/0,
                                      common::SimTime{},
                                      t,
                                      routes,
                                      options,
                                      deadlock.deadlock_free,
                                      summary.compliant,
                                      deadlock.channels,
                                      deadlock.dependencies,
                                      summary.hops().mean,
                                      summary.hops().max};
  const std::string bytes = service::encode_snapshot(snapshot);
  Fnv encoded;
  encoded.add_bytes(bytes);
  os << "snapshot bytes " << bytes.size() << ' ' << encoded.hex() << "\n";
}

std::string digest(const std::string& name, const topo::Topology& fabric) {
  // The component a mapper on the first host would discover, compacted:
  // what `sanmap lint` routes over.
  const topo::Topology t =
      topo::component_of(fabric, fabric.hosts().front()).compacted();
  std::ostringstream os;
  os << "# sanmap route golden v1\n";
  os << "case " << name << " switches " << t.num_switches() << " hosts "
     << t.num_hosts() << " wires " << t.num_wires() << "\n";
  for (const Variant& v : kVariants) {
    digest_variant(t, v, os);
  }
  return os.str();
}

fs::path golden_dir() { return fs::path(SANMAP_GOLDEN_DIR) / "routes"; }

bool update_mode() {
  return std::getenv("SANMAP_UPDATE_GOLDEN") != nullptr;
}

/// Compares `actual` against the named golden file, or rewrites the file in
/// update mode.
void check_golden(const std::string& golden_name, const std::string& actual) {
  const fs::path path = golden_dir() / (golden_name + ".golden");
  if (update_mode()) {
    fs::create_directories(golden_dir());
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — record it with SANMAP_UPDATE_GOLDEN=1 on a known-good build";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string expected = buffer.str();
  if (expected == actual) {
    return;
  }
  std::istringstream want(expected);
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  std::string variant;
  int line_no = 0;
  while (true) {
    const bool have_want = static_cast<bool>(std::getline(want, want_line));
    const bool have_got = static_cast<bool>(std::getline(got, got_line));
    ++line_no;
    if (have_want && want_line.rfind("variant ", 0) == 0) {
      variant = want_line;
    }
    if (!have_want && !have_got) {
      break;
    }
    if (!have_want || !have_got || want_line != got_line) {
      FAIL() << golden_name << ": first divergence at line " << line_no
             << " (" << variant << ")"
             << "\n  golden: " << (have_want ? want_line : "<eof>")
             << "\n  actual: " << (have_got ? got_line : "<eof>");
    }
  }
  FAIL() << golden_name << ": digests differ";
}

TEST(RouteGolden, CorpusCases) {
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
    const verify::ScenarioCase c = verify::read_case_file(path.string());
    check_golden(path.stem().string(), digest(c.name, c.network));
  }
}

TEST(RouteGolden, Figure4Subcluster) {
  check_golden("fig4", digest("fig4-subcluster-c",
                              topo::now_subcluster(topo::Subcluster::kC, "C")));
}

TEST(RouteGolden, Figure5NowCluster) {
  check_golden("fig5", digest("fig5-now100", topo::now_cluster()));
}

TEST(RouteGolden, MegaFatTree64Leaves) {
  topo::MegaFatTreeOptions options;
  options.leaf_switches = 64;
  check_golden("megafattree-64", digest("megafattree-64",
                                        topo::mega_fat_tree(options)));
}

TEST(RouteGolden, Dragonfly128Switches) {
  // The serve-churn-dragonfly fabric: 16 groups of 8 switches, 16 hosts
  // per group, seed 1.
  topo::DragonflyishOptions options;
  options.groups = 16;
  options.switches_per_group = 8;
  options.hosts_per_group = 16;
  common::Rng rng(1);
  check_golden("dragonfly-128", digest("dragonfly-128",
                                       topo::dragonfly_ish(options, rng)));
}

}  // namespace
}  // namespace sanmap
