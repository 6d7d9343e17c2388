// The write side of the map service: watch, localize, remap, verify, swap.
//
// A long-lived mapper host does the paper's §5.5 pipeline forever. Each
// tick advances the virtual clock by the check interval and verifies the
// current snapshot's map against the live (possibly faulted) fabric with
// one IncrementalMapper sweep: an echo per switch-to-switch wire, a host
// probe per host wire, and a probe per recorded-free port. While the map
// still matches the fabric a tick is pure observation. A dead wire, switch
// or host fails its probe; a revived one answers on a port the map records
// as free. Either way the sweep's findings name the switches involved, and
// the loop escalates through three rungs:
//
//  1. incremental — the findings' switches plus one hop are the dirty
//     region; re-probe only that region with IncrementalMapper (the rest of
//     the previous epoch's map is trusted wholesale and spliced around it),
//     verify the candidate map with one more sweep, and publish. A repair
//     that re-derives the served map ends the tick fresh instead: the
//     findings were host-less switches of the separated set F, which
//     Theorem 1 leaves out of every map, bouncing probes on a free port;
//  2. full remap — a mapper::RobustMapper session against the live network
//     when the incremental attempt failed, produced a map the router
//     refuses, or its sweep had findings (or when the incremental rung is
//     off). A session that re-derives the served map ends the tick fresh,
//     as the incremental rung does;
//  3. degraded — when even the full remap cannot produce a publishable
//     snapshot, keep serving the last safe snapshot with the dirty region
//     quarantined (MapCatalog health kDegraded) and try again next tick.
//
// Every candidate snapshot — incremental or full — passes the same catalog
// gate via publish_if_current before its tables are distributed, so a
// concurrent publisher's fresher routes are never clobbered and an unsafe
// table is neither served nor pushed to a NIC, whichever rung built it.
//
// An exponential backoff keeps a flapping link from turning into a remap
// storm: each consecutive tick with findings that remaps doubles the pause
// before the next remap attempt, from 100 ms up to 2 s. While damped, the
// loop still downgrades catalog health so readers see the staleness.
//
// Threading: one RefreshLoop instance is the catalog's single writer; any
// number of RouteQueryEngine readers run concurrently against the catalog.
// That split — exclusive probing, lock-free reading — is the whole
// concurrency design of the service. The writer role is formalized by an
// internal mutex: ticks serialize (an accidental concurrent tick() queues
// instead of racing the clock and the storm dampers), and clang's
// -Wthread-safety proves every access to the tick-side state happens on the
// locked writer path. The intended usage is still one thread — Network and
// ProbeEngine are shared with code outside the loop and are not themselves
// thread-safe.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.hpp"
#include "common/thread_annotations.hpp"
#include "mapper/incremental.hpp"
#include "mapper/robust_mapper.hpp"
#include "probe/probe_engine.hpp"
#include "routing/distribute.hpp"
#include "service/map_catalog.hpp"
#include "simnet/network.hpp"

namespace sanmap::service {

/// The route choices (the base) are baked into every published snapshot,
/// routed from the natural root of the freshly mapped fabric.
struct RefreshConfig : routing::RouteChoices {
  /// The mapper/master host, by name (must exist in the live fabric).
  std::string master_name;
  /// Virtual time between health checks (must be positive).
  common::SimTime check_interval = common::SimTime::ms(50);
  /// Try a dirty-region incremental remap (the sweep's flagged switches
  /// plus one hop) before falling back to a full RobustMapper session.
  bool incremental = true;
};

/// Outcome of a tick's publish attempt. Unlike MapCatalog::PublishStatus
/// this has an explicit idle state, so a tick that never tried to publish
/// cannot be mistaken for a rejected one.
enum class TickPublish : std::uint8_t {
  kNotAttempted,
  kPublished,
  kRejectedUnsafe,
  kRejectedStale,
};

const char* to_string(TickPublish status);

/// Which remap rung produced the tick's final candidate snapshot.
enum class RemapKind : std::uint8_t { kNone, kIncremental, kFull };

const char* to_string(RemapKind kind);

/// What one tick did.
struct TickReport {
  /// Catalog epochs around the tick; equal when nothing was published.
  std::uint64_t epoch_before = 0;
  std::uint64_t epoch_after = 0;
  /// Probes the tick's verification sweep of the served map spent, plus
  /// those of a remap session (incremental or full) that re-derived the
  /// served map.
  std::uint64_t verify_probes = 0;
  /// Ports whose probe contradicted the served map (0: still fresh).
  std::size_t findings = 0;
  /// A remap session (incremental or full) ran this tick and produced a
  /// candidate that differs from the served map.
  bool remapped = false;
  /// The rung whose snapshot the publish attempt used.
  RemapKind remap = RemapKind::kNone;
  /// The incremental rung was tried and fell through to the full remap.
  bool escalated = false;
  /// Dirty-region switches (the findings' switches plus one hop), 0 when
  /// the sweep had no findings.
  std::size_t dirty_switches = 0;
  /// Findings were seen but the backoff damper skipped the remap.
  bool backoff_active = false;
  /// Probes all remap sessions of this tick spent, the incremental
  /// candidate's verification sweep included (0 when !remapped).
  std::uint64_t probes_used = 0;
  /// Outcome of the publish attempt; kNotAttempted on observation-only,
  /// damped, and degraded ticks.
  TickPublish publish_status = TickPublish::kNotAttempted;
  /// Every table message of the redistribution was delivered (meaningful
  /// only when a publish succeeded: a refused snapshot is not distributed).
  bool distribution_complete = false;
  /// Catalog health after the tick.
  MapCatalog::HealthState health = MapCatalog::HealthState::kFresh;
  /// Virtual-clock instant the tick finished at.
  common::SimTime at{};

  [[nodiscard]] bool swapped() const { return epoch_after != epoch_before; }
};

class RefreshLoop {
 public:
  /// `net` must outlive the loop; `catalog` is where snapshots land. The
  /// master host is resolved by name against net's topology. Throws
  /// common::CheckFailure on an invalid config (empty or unknown
  /// master_name, non-positive check_interval) — fail at construction, not
  /// on the first tick.
  RefreshLoop(simnet::Network& net, MapCatalog& catalog, RefreshConfig config);

  /// Maps the fabric from scratch and publishes the first snapshot (or a
  /// fresh one if the catalog already has epochs).
  TickReport bootstrap() SANMAP_EXCLUDES(mutex_);

  /// One watch cycle: advance the clock, verify the current snapshot's map
  /// against the live fabric, and remap + verify + publish + distribute
  /// when the sweep had findings. Bootstraps if the catalog is empty.
  TickReport tick() SANMAP_EXCLUDES(mutex_);

  /// Runs `ticks` cycles; returns one report per tick.
  std::vector<TickReport> run(int ticks) SANMAP_EXCLUDES(mutex_);

  /// The loop's virtual clock (advances across ticks and remaps).
  [[nodiscard]] common::SimTime now() const SANMAP_EXCLUDES(mutex_) {
    common::MutexLock lock(mutex_);
    return now_;
  }

 private:
  /// The bodies of bootstrap()/tick(), on the locked writer path (tick
  /// bootstraps an empty catalog itself, so the lock is taken once at the
  /// public entry points).
  TickReport bootstrap_locked() SANMAP_REQUIRES(mutex_);
  TickReport tick_locked() SANMAP_REQUIRES(mutex_);

  /// The served snapshot matches the fabric: reset the damper, set catalog
  /// health fresh, and close the report.
  void mark_fresh(TickReport& report) SANMAP_REQUIRES(mutex_);

  /// One verification sweep (no repair) of `map` against the live fabric,
  /// starting at now_ and advancing it.
  mapper::IncrementalResult verify(const topo::Topology& map)
      SANMAP_REQUIRES(mutex_);

  /// The escalation chain for one tick with findings (also the bootstrap path,
  /// with previous == nullptr). Updates catalog health on failure. Clears
  /// report.remapped when the incremental repair re-derives `previous`'s
  /// map: the findings were the separated set F, and nothing is published.
  void remap_and_publish(std::uint64_t based_on_epoch,
                         const SnapshotPtr& previous,
                         const std::vector<topo::NodeId>& dirty,
                         TickReport& report) SANMAP_REQUIRES(mutex_);

  /// Full RobustMapper session against the live fabric; adds the probes
  /// it spent to `probes`.
  [[nodiscard]] topo::Topology full_remap(std::uint64_t& probes)
      SANMAP_REQUIRES(mutex_);

  /// Build, verify (the incremental rung's live sweep), publish, then
  /// distribute the published snapshot. Returns true when it became
  /// current.
  bool try_publish(const topo::Topology& map, std::uint64_t based_on_epoch,
                   const char* source, TickReport& report)
      SANMAP_REQUIRES(mutex_);

  /// Downgrade catalog health, quarantining `dirty` (snapshot-map ids of
  /// `snapshot`'s map).
  void set_health(MapCatalog::HealthState state, const MapSnapshot* snapshot,
                  const std::vector<topo::NodeId>& dirty)
      SANMAP_REQUIRES(mutex_);

  // Immutable after construction.
  simnet::Network* net_;
  MapCatalog* catalog_;
  RefreshConfig config_;
  topo::NodeId master_;
  /// Remap session knobs: RobustConfig's defaults, with base.search_depth
  /// the exact bound Q + D + 1 of the master's component at construction
  /// plus 2 (the slack bench_faults uses for fabrics that degrade mid-pass).
  mapper::RobustConfig robust_;

  /// The writer-role lock: everything a tick mutates lives under it.
  mutable common::Mutex mutex_;
  probe::ProbeEngine engine_ SANMAP_GUARDED_BY(mutex_);
  common::SimTime now_ SANMAP_GUARDED_BY(mutex_){};

  // Backoff-damper state.
  int consecutive_remaps_ SANMAP_GUARDED_BY(mutex_) = 0;
  common::SimTime backoff_until_ SANMAP_GUARDED_BY(mutex_){};
};

}  // namespace sanmap::service
