// O(m) regression test: probe cost grows linearly in switch count.
//
// Maps tapered mega-fat-trees at four sizes, fits probes vs m by least
// squares (affine: probes ~ a*m + b), and asserts every point sits within a
// pinned relative residual of the fit. A superlinear regression — an
// accidental O(m^2) scan in the model-graph or probe hot paths — bends the
// curve and blows the residual long before it blows wall clock on CI
// hardware, so this gate is timing-free and deterministic.
//
// The default (tier-1) sizes keep the test under ~500 ms; set
// SANMAP_SCALING_FULL=1 to sweep the paper-scale m in {512, 1k, 2k, 4k}
// (the CI scaling job does).
#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "mapper/berkeley_mapper.hpp"
#include "probe/probe_engine.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"

namespace sanmap {
namespace {

/// Pinned bound on how far any sweep point may sit from the affine fit.
/// Measured residuals are below 1% at both size tiers; 3% leaves headroom
/// for generator boundary effects (top-level width clamps) without letting
/// a quadratic term through — at these sizes even a 1e-3 * m^2 term shifts
/// the largest point by over 10%.
constexpr double kMaxRelativeResidual = 0.03;

struct Point {
  double m = 0;       // switches
  double probes = 0;  // total probes to map
};

Point map_size(int target_switches) {
  topo::MegaFatTreeOptions options;
  options.leaf_switches = std::max(2, target_switches * 8 / 15);
  const topo::Topology network = topo::mega_fat_tree(options);
  const topo::NodeId mapper_host = network.hosts().front();
  simnet::Network net(network);
  probe::ProbeEngine engine(net, mapper_host);
  mapper::MapperConfig config;
  // As `sanmap map`: the one-BFS floor, and the exact Q + D + 1 only if the
  // exploration reaches past it (no fat tree of the sweep does).
  config.search_depth = topo::search_depth_floor(network, mapper_host);
  config.exact_search_depth = [&] {
    return topo::search_depth(network, mapper_host);
  };
  const mapper::MapResult result = mapper::BerkeleyMapper(engine, config).run();
  EXPECT_EQ(result.map.num_switches(), network.num_switches());
  EXPECT_EQ(result.map.num_wires(), network.num_wires());
  return {static_cast<double>(network.num_switches()),
          static_cast<double>(result.probes.total())};
}

TEST(Scaling, ProbeCountIsLinearInSwitchCount) {
  const bool full = std::getenv("SANMAP_SCALING_FULL") != nullptr;
  // The reduced tier starts at 256 switches: below that the clamped top
  // levels are a visible fraction of the fabric and probes/m has not
  // converged, which bends the affine fit for reasons unrelated to the
  // hot-path complexity this test guards.
  const std::vector<int> sizes = full ? std::vector<int>{512, 1024, 2048, 4096}
                                      : std::vector<int>{256, 512, 768, 1024};

  std::vector<Point> points;
  for (const int m : sizes) {
    points.push_back(map_size(m));
  }

  // Least-squares affine fit probes = a*m + b.
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const Point& p : points) {
    sx += p.m;
    sy += p.probes;
    sxx += p.m * p.m;
    sxy += p.m * p.probes;
  }
  const double n = static_cast<double>(points.size());
  const double a = (n * sxy - sx * sy) / (n * sxx - sx * sx);
  const double b = (sy - a * sx) / n;
  EXPECT_GT(a, 0.0) << "probe cost must grow with fabric size";

  for (const Point& p : points) {
    const double fit = a * p.m + b;
    const double residual = std::abs(fit - p.probes) / p.probes;
    EXPECT_LT(residual, kMaxRelativeResidual)
        << "m=" << p.m << " probes=" << p.probes << " fit=" << fit
        << " — superlinear bend in probes vs m";
  }
}

}  // namespace
}  // namespace sanmap
