// One immutable map+route epoch of the map service.
//
// The paper stops at "routes are computed and distributed to all network
// interfaces"; a production mapper host keeps doing that forever. The unit
// it keeps producing is a MapSnapshot: a compacted map of the fabric, the
// full route table computed on it, and the safety verdict of the static
// analyzer — bundled so no consumer can ever pair a route table with the
// wrong map or skip the safety check.
//
// build_snapshot() only computes; certify() writes the verdict from one
// analysis::analyze run. Its callers are the MapCatalog publish gate and
// decode_snapshot(), which takes the table from the file instead of
// routing again; a built snapshot carries no verdict yet.
//
// Snapshots are immutable after publication and shared by reference count;
// MapCatalog publishes them under monotonically increasing epochs and
// readers hold them for as long as a query is in flight, so a snapshot's
// lifetime is decoupled from how fast the catalog moves on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "analysis/analyzer.hpp"
#include "common/sim_time.hpp"
#include "routing/engine.hpp"
#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::service {

/// How a snapshot's routes were parameterized. The codec persists these
/// with the table: decode rebuilds the orientation from the map, the root
/// name and the engine, and keeps the seed and the optimizer flag as
/// provenance.
struct SnapshotOptions {
  /// UP*/DOWN* root override by switch name; empty picks the natural root
  /// (the switch farthest from all hosts). Names survive compaction and
  /// serialization, node ids do not.
  std::string root_name;
  /// Seed for the route emitter's parallel-cable load-balance choice.
  std::uint64_t route_seed = 1;
  /// Provenance tag ("bootstrap", "remap", "file", ...) for diagnostics.
  std::string source;
  /// Which deadlock-free routing engine computes the table. Any engine
  /// whose table certifies is publishable; the publish gate proves safety
  /// independently either way.
  routing::EngineKind engine = routing::EngineKind::kUpDown;
  /// Run the skew/funnel RouteOptimizer pass over the table after routing
  /// (the optimizer checks the final table's legality once, and the gate's
  /// verdict covers it regardless).
  bool optimize = false;
};

struct MapSnapshot {
  /// Catalog epoch; 0 until published (MapCatalog assigns on publish).
  std::uint64_t epoch = 0;
  /// Virtual-clock instant the snapshot was built at.
  common::SimTime created_at{};

  /// The map, compacted (dense ids, no tombstones) so route node ids and
  /// serialized form agree.
  topo::Topology map;
  /// All-pairs routes computed on `map`.
  routing::RoutingResult routes;
  SnapshotOptions options;

  // -- safety verdict (written by certify()) -------------------------------
  /// Dally & Seitz channel-dependency analysis, from the Kahn-based
  /// analysis::DeadlockCertificate: acyclic, hence mutually deadlock-free.
  bool deadlock_free = false;
  /// Every route obeys the UP*/DOWN* rule (no down-to-up turn), per the
  /// legality certificate.
  bool compliant = false;
  std::size_t channels = 0;
  std::size_t dependencies = 0;

  // -- cached route-quality summary ----------------------------------------
  double mean_hops = 0.0;
  int max_hops = 0;
};

using SnapshotPtr = std::shared_ptr<const MapSnapshot>;

/// Builds a snapshot from a map: compacts it, resolves the root by name,
/// computes the routes (optimized when asked) and their hop counts; the
/// verdict stays unset. The map must be connected with at least one switch
/// and one host (the router's precondition). Throws via SANMAP_CHECK when
/// `options.root_name` names no switch of the map.
MapSnapshot build_snapshot(const topo::Topology& map,
                           const SnapshotOptions& options,
                           common::SimTime created_at);

/// Runs the static analyzer once and writes its certificates' verdict
/// into the snapshot (compliant is false when the route phase did not run).
/// Returns the analysis, whose ERROR diagnostics refuse a publish.
analysis::AnalysisResult certify(MapSnapshot& snapshot);

}  // namespace sanmap::service
