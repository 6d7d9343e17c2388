// Megafabric scaling: probes and wall-clock vs switch count m
// (DESIGN.md §14).
//
// Sweeps the Berkeley mapper over generated megafabrics — tapered
// multi-level fat trees (the primary O(m) family) plus dragonfly-ish
// irregular meshes for shape variety — and records, per size, the probe
// count, the wall-clock mapping time, and probes/m. Sessions map as
// `sanmap map` does: the one-BFS topo::search_depth_floor, with the exact
// Q + D + 1 (O(V · E), ~1.4 s at 5k switches on 4 vCPUs, ~5 s on one)
// solved only if the exploration reaches past the floor. That keeps the
// probes of the exact bound, which a larger cap need not: a cap above
// Q + D + 1 explores a host-free region behind a switch-bridge further.
// These fabrics have none, and the "exact" column reports whether a
// session solved the bound.
//
// Self-gating (nonzero exit on violation, so CI runs it as an acceptance
// gate):
//
//  * probes/m across the fat-tree sweep stays flat within 15% of the
//    smallest size — mapping is O(m) in probes, not just asymptotically;
//  * every mapped core carries exactly the fabric's switch/host/wire counts
//    (these generators core to themselves, so Theorem 1 demands the whole
//    fabric back);
//  * the 5k-switch fat tree maps in under 10 s of wall clock (full mode).
//
// --smoke shrinks the sweep (~100-400 switches) for CI; the flatness and
// exact-count gates still apply. Results land in BENCH_scaling.json.
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/flags.hpp"
#include "common/table.hpp"
#include "topology/isomorphism.hpp"

namespace {

using namespace sanmap;

struct Sample {
  std::string name;
  std::size_t switches = 0;
  std::uint64_t probes = 0;
  double wall_ms = 0.0;
  bool counts_ok = false;
  bool solved_exact = false;  // the exploration reached past the floor
};

/// Widths 8L/8, 8L/16, ... — a leaf count of roughly 8m/15 yields a
/// four-level tree of about m switches total.
topo::Topology fat_tree_of(int total_switches) {
  topo::MegaFatTreeOptions options;
  options.leaf_switches = std::max(2, total_switches * 8 / 15);
  return topo::mega_fat_tree(options);
}

Sample map_fabric(const std::string& name, const topo::Topology& network,
                  bool check_isomorphic) {
  Sample s;
  s.name = name;
  s.switches = network.num_switches();
  const topo::NodeId mapper_host = network.hosts().front();
  mapper::MapperConfig config;
  config.search_depth = topo::search_depth_floor(network, mapper_host);
  config.exact_search_depth = [&] {
    s.solved_exact = true;
    return topo::search_depth(network, mapper_host);
  };
  const auto start = std::chrono::steady_clock::now();
  simnet::Network net(network);
  probe::ProbeEngine engine(net, mapper_host);
  const mapper::MapResult result = mapper::BerkeleyMapper(engine, config).run();
  const auto stop = std::chrono::steady_clock::now();
  s.wall_ms =
      std::chrono::duration<double, std::milli>(stop - start).count();
  s.probes = result.probes.total();
  // These fabrics have no host-free region behind a switch-bridge, so the
  // mapped core must be the whole network. Exact counts are a cheap strong
  // check at 5k switches; full isomorphism is reserved for the smallest size.
  s.counts_ok = result.map.num_switches() == network.num_switches() &&
                result.map.num_hosts() == network.num_hosts() &&
                result.map.num_wires() == network.num_wires();
  if (check_isomorphic && s.counts_ok) {
    s.counts_ok = topo::isomorphic(result.map, topo::core(network));
  }
  return s;
}

}  // namespace

int main(int argc, char** argv) {
  common::Flags flags;
  flags.define("smoke", "false", "CI mode: shrink the sweep to ~100-400 "
                                 "switches and skip the 5k gate");
  flags.define("tolerance", "0.15",
               "allowed probes/m drift across the fat-tree sweep");
  if (!flags.parse(argc, argv)) {
    return 0;
  }
  const bool smoke = flags.get_bool("smoke");
  const double tolerance = flags.get_double("tolerance");

  const std::vector<int> fat_tree_sizes =
      smoke ? std::vector<int>{100, 200, 400}
            : std::vector<int>{500, 1000, 2000, 4000};

  std::cout << "=== Megafabric scaling: probes and wall clock vs switches "
               "===\n";
  common::Table table({"fabric", "switches", "probes", "probes/m",
                       "wall (ms)", "counts", "exact"});
  bench::JsonReport report("scaling");
  bool ok = true;

  std::vector<Sample> sweep;
  for (std::size_t i = 0; i < fat_tree_sizes.size(); ++i) {
    const topo::Topology network = fat_tree_of(fat_tree_sizes[i]);
    const std::string name =
        "fat-tree/" + std::to_string(network.num_switches());
    sweep.push_back(map_fabric(name, network, i == 0));
  }
  // Dragonfly-ish shape variety: reported, but the flatness gate applies to
  // the fat-tree family (each family has its own probes/m constant).
  {
    topo::DragonflyishOptions options;
    options.groups = smoke ? 8 : 32;
    common::Rng rng(1);
    const topo::Topology network = topo::dragonfly_ish(options, rng);
    sweep.push_back(map_fabric(
        "dragonfly/" + std::to_string(network.num_switches()), network, true));
  }

  const double ppm0 =
      static_cast<double>(sweep.front().probes) /
      static_cast<double>(sweep.front().switches);
  for (const Sample& s : sweep) {
    const double ppm =
        static_cast<double>(s.probes) / static_cast<double>(s.switches);
    const bool in_family = s.name.rfind("fat-tree/", 0) == 0;
    const double drift = std::abs(ppm - ppm0) / ppm0;
    if (in_family && drift > tolerance) {
      std::cerr << s.name << ": probes/m " << ppm << " drifts " << drift * 100
                << "% from the smallest size (" << ppm0 << ") — over the "
                << tolerance * 100 << "% bar\n";
      ok = false;
    }
    if (!s.counts_ok) {
      std::cerr << s.name << ": mapped core does not match the fabric\n";
      ok = false;
    }
    table.add_row({s.name, std::to_string(s.switches),
                   std::to_string(s.probes), common::fmt(ppm, 2),
                   common::fmt(s.wall_ms, 1), s.counts_ok ? "ok" : "WRONG",
                   s.solved_exact ? "solved" : "-"});
    report.add(s.name, "switches", static_cast<double>(s.switches));
    report.add(s.name, "probes", static_cast<double>(s.probes));
    report.add(s.name, "probes_per_switch", ppm);
    report.add(s.name, "wall_ms", s.wall_ms);
    report.add(s.name, "counts_ok", s.counts_ok ? 1 : 0);
    report.add(s.name, "solved_exact", s.solved_exact ? 1 : 0);
  }

  if (!smoke) {
    // The headline gate: a 5k-switch fabric in single-digit seconds.
    const topo::Topology network = fat_tree_of(5000);
    const Sample s = map_fabric(
        "fat-tree/" + std::to_string(network.num_switches()), network, false);
    const double wall_s = s.wall_ms / 1000.0;
    table.add_row({s.name, std::to_string(s.switches),
                   std::to_string(s.probes),
                   common::fmt(static_cast<double>(s.probes) /
                                   static_cast<double>(s.switches),
                               2),
                   common::fmt(s.wall_ms, 1), s.counts_ok ? "ok" : "WRONG",
                   s.solved_exact ? "solved" : "-"});
    report.add(s.name, "switches", static_cast<double>(s.switches));
    report.add(s.name, "probes", static_cast<double>(s.probes));
    report.add(s.name, "wall_ms", s.wall_ms);
    report.add(s.name, "counts_ok", s.counts_ok ? 1 : 0);
    report.add(s.name, "solved_exact", s.solved_exact ? 1 : 0);
    if (!s.counts_ok) {
      std::cerr << s.name << ": mapped core does not match the fabric\n";
      ok = false;
    }
    if (wall_s >= 10.0) {
      std::cerr << s.name << ": " << wall_s
                << " s wall clock — over the 10 s bar\n";
      ok = false;
    }
  }

  std::cout << table << "\n";
  report.write();
  if (!ok) {
    std::cerr << "scaling gates FAILED\n";
    return 1;
  }
  std::cout << "probes/m flat within " << tolerance * 100
            << "%, cores exact" << (smoke ? " (smoke)" : ", 5k under 10 s")
            << "\n";
  return 0;
}
