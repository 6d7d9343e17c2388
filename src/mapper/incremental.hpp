// Incremental remapping: verify an existing map cheaply, and repair it
// locally when the network changed.
//
// The paper's system "periodically discovers the network topology" by
// remapping from scratch. When nothing changed — the common case — a full
// remap wastes hundreds of probes. This extension verifies the previous
// map with roughly one probe per port:
//
//  * a switch-to-switch wire (s,p)-(t,q) is confirmed by ONE echo probe
//    routed out to s, across the wire with the recorded turn, and back to
//    the mapper along t's known path — it returns iff port p of s still
//    reaches port q of t (turn mismatches from splices or recabling kill
//    it);
//  * a host wire is confirmed by a host probe whose answer must carry the
//    same host name;
//  * every recorded-free switch port is probed to confirm nothing new
//    appeared there.
//
// All routes are derived from the previous map; since turns are port
// *differences*, the map's unknown per-switch offsets cancel and the routes
// are valid on the real network.
//
// On discrepancies, the repair phase reloads the confirmed part of the map
// into a model graph, marks every switch incident to a discrepancy (plus
// its neighbors' affected slots) unexplored, and reruns the standard
// exploration — known-port skipping makes the re-exploration pay only for
// what actually changed.
#pragma once

#include <string>
#include <vector>

#include "mapper/map_result.hpp"
#include "probe/probe_engine.hpp"
#include "topology/topology.hpp"

namespace sanmap::mapper {

/// Routing data for one node of a map, derived by BFS from the mapper
/// host: the probe prefix that enters the node and the map-port it enters
/// through. Because turns are port *differences*, these prefixes are valid
/// on the real network even though the map's per-switch port offsets are
/// unknown.
struct MapReach {
  simnet::Route prefix;
  topo::Port entry = 0;
  bool reachable = false;
};

/// BFS over `map` from `map_mapper` (a host of `map`), producing per-node
/// reach data indexed by map node id. When `switch_order` is non-null it
/// receives the reachable switches in discovery order — the order every
/// sweep in this file probes them. Shared by the verification sweep here
/// and by RobustMapper's fault sweeps.
std::vector<MapReach> map_reach(const topo::Topology& map,
                                topo::NodeId map_mapper,
                                std::vector<topo::NodeId>* switch_order);

/// What a verification probe contradicted.
enum class DiscrepancyKind : std::uint8_t {
  kNewDevice,    // something answered on a recorded-free port
  kHostMissing,  // recorded host absent or renamed
  kWireBroken,   // switch-to-switch echo failed
};

const char* to_string(DiscrepancyKind kind);

/// One verification finding, anchored to the map-space port whose recorded
/// state the probe contradicted.
struct Discrepancy {
  DiscrepancyKind kind = DiscrepancyKind::kWireBroken;
  topo::NodeId node = topo::kInvalidNode;  // map-space switch id
  topo::Port port = 0;
  std::string detail;  // the human-readable line, as logged
};

struct IncrementalConfig {
  MapperConfig base;
  /// Repair locally on discrepancies; when false, run() stops after
  /// verification (result.map is the previous map, possibly stale).
  bool repair = true;
  /// Fraction of verification checks actually probed, in (0, 1]. 1 is the
  /// full sweep. A sampled sweep (< 1) is a cheap statistical consistency
  /// check — each port is probed independently with this probability — and
  /// is only legal with repair off (repair needs the full confirmed set).
  double verify_fraction = 1.0;
  /// Previous-map switch ids to sweep — the dirty region. Empty means sweep
  /// everything (the default; bit-identical to the pre-region behaviour).
  /// Switches outside the region are trusted wholesale: no probes are spent
  /// on them, every recorded port counts as confirmed, and repair marks
  /// them explored. The region self-corrects at its boundary: an echo from
  /// an in-region switch across a boundary wire still exercises the trusted
  /// side, and a failure flags both ends for re-exploration, so a region
  /// drawn slightly too small costs a repair pass rather than a wrong map.
  std::vector<topo::NodeId> region;
};

struct IncrementalResult {
  topo::Topology map;
  /// Verification found no discrepancies; `map` is the previous map.
  bool unchanged = false;
  /// Probes spent on the verification sweep alone.
  std::uint64_t verification_probes = 0;
  /// Switches actually swept (== reachable switches when region is empty).
  std::size_t swept_switches = 0;
  /// What verification caught, one entry per flagged port (a broken
  /// switch-to-switch wire contributes one finding per side).
  std::vector<Discrepancy> findings;
  probe::ProbeCounters probes;
  common::SimTime elapsed{};
};

class IncrementalMapper {
 public:
  /// `previous_map` must contain the engine's mapper host (by name).
  IncrementalMapper(probe::ProbeEngine& engine, topo::Topology previous_map,
                    IncrementalConfig config);

  IncrementalResult run();

 private:
  probe::ProbeEngine* engine_;
  topo::Topology previous_;
  IncrementalConfig config_;
};

}  // namespace sanmap::mapper
