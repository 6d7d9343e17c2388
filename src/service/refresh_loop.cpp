#include "service/refresh_loop.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "topology/algorithms.hpp"
#include "topology/isomorphism.hpp"

namespace sanmap::service {

namespace {

/// The backoff damper's pause after the first remap of a run of ticks with
/// findings; each further consecutive remap doubles it, up to the cap.
constexpr common::SimTime kInitialBackoff = common::SimTime::ms(100);
constexpr common::SimTime kMaxBackoff = common::SimTime::seconds(2);

topo::NodeId resolve_master(const topo::Topology& topo,
                            const std::string& name) {
  const auto host = topo.find_host(name);
  SANMAP_CHECK_MSG(host.has_value(),
                   "master host " << name << " does not exist in the fabric");
  return *host;
}

/// Config errors surface here, at construction, instead of as a confusing
/// crash (or a silently frozen clock) on the first tick.
void validate(const RefreshConfig& config) {
  SANMAP_CHECK_MSG(!config.master_name.empty(),
                   "RefreshConfig::master_name must name the mapper host");
  SANMAP_CHECK_MSG(config.check_interval > common::SimTime{},
                   "RefreshConfig::check_interval must be positive; got "
                       << config.check_interval.str());
}

TickPublish to_tick_publish(MapCatalog::PublishStatus status) {
  switch (status) {
    case MapCatalog::PublishStatus::kPublished:
      return TickPublish::kPublished;
    case MapCatalog::PublishStatus::kRejectedUnsafe:
      return TickPublish::kRejectedUnsafe;
    case MapCatalog::PublishStatus::kRejectedStale:
      return TickPublish::kRejectedStale;
  }
  return TickPublish::kRejectedUnsafe;
}

/// The findings' switches plus their switch neighbours, as sorted ids of
/// `map`: a dead wire or switch flags the switches on both sides of it, and
/// one hop covers what sits just beyond them.
std::vector<topo::NodeId> dirty_region(
    const topo::Topology& map,
    const std::vector<mapper::Discrepancy>& findings) {
  std::vector<topo::NodeId> region;
  for (const mapper::Discrepancy& finding : findings) {
    region.push_back(finding.node);
    for (const topo::PortRef& ref : map.neighbors(finding.node)) {
      if (map.is_switch(ref.node)) {
        region.push_back(ref.node);
      }
    }
  }
  std::sort(region.begin(), region.end());
  region.erase(std::unique(region.begin(), region.end()), region.end());
  return region;
}

}  // namespace

const char* to_string(TickPublish status) {
  switch (status) {
    case TickPublish::kNotAttempted:
      return "not-attempted";
    case TickPublish::kPublished:
      return "published";
    case TickPublish::kRejectedUnsafe:
      return "rejected-unsafe";
    case TickPublish::kRejectedStale:
      return "rejected-stale";
  }
  return "?";
}

const char* to_string(RemapKind kind) {
  switch (kind) {
    case RemapKind::kNone:
      return "none";
    case RemapKind::kIncremental:
      return "incremental";
    case RemapKind::kFull:
      return "full";
  }
  return "?";
}

RefreshLoop::RefreshLoop(simnet::Network& net, MapCatalog& catalog,
                         RefreshConfig config)
    : net_(&net),
      catalog_(&catalog),
      config_((validate(config), std::move(config))),
      master_(resolve_master(net.topology(), config_.master_name)),
      engine_(net, master_) {
  // The exact bound Q + D + 1 of the fabric at construction, plus the slack
  // bench_faults uses for fabrics that degrade mid-pass. An under-deep map
  // would show up as "new devices" on every tick's sweep.
  robust_.base.search_depth = topo::search_depth(net.topology(), master_) + 2;
}

TickReport RefreshLoop::bootstrap() {
  common::MutexLock lock(mutex_);
  return bootstrap_locked();
}

TickReport RefreshLoop::tick() {
  common::MutexLock lock(mutex_);
  return tick_locked();
}

TickReport RefreshLoop::bootstrap_locked() {
  TickReport report;
  report.epoch_before = catalog_->epoch();
  remap_and_publish(report.epoch_before, nullptr, {}, report);
  report.epoch_after = catalog_->epoch();
  report.health = catalog_->health()->state;
  report.at = now_;
  return report;
}

TickReport RefreshLoop::tick_locked() {
  const SnapshotPtr snapshot = catalog_->current();
  if (!snapshot) {
    now_ += config_.check_interval;
    return bootstrap_locked();
  }

  TickReport report;
  report.epoch_before = snapshot->epoch;
  now_ += config_.check_interval;

  const mapper::IncrementalResult sweep = verify(snapshot->map);
  report.verify_probes = sweep.verification_probes;
  report.findings = sweep.findings.size();

  if (sweep.unchanged) {
    // Every wire, host and free port of the served map just answered as
    // recorded: the snapshot is fresh again, whatever the previous
    // quarantine said (a revived link, or a flapper caught in its up phase
    // — the next finding re-quarantines).
    mark_fresh(report);
    return report;
  }

  SANMAP_LOG(kInfo, "refresh-loop",
             "epoch " << snapshot->epoch << ": " << report.findings
                      << " findings in " << report.verify_probes
                      << " probes");

  const std::vector<topo::NodeId> dirty =
      dirty_region(snapshot->map, sweep.findings);
  report.dirty_switches = dirty.size();
  // Quarantine the dirty region right away: readers stop getting routes
  // through it even before the remap lands (or when the damper below skips
  // the remap entirely).
  set_health(MapCatalog::HealthState::kStaleServing, snapshot.get(), dirty);

  // Storm damper: skip the remap while backing off — but keep the
  // downgraded health visible.
  if (now_ < backoff_until_) {
    report.backoff_active = true;
    report.health = catalog_->health()->state;
    report.epoch_after = catalog_->epoch();
    report.at = now_;
    return report;
  }

  ++consecutive_remaps_;
  remap_and_publish(snapshot->epoch, snapshot, dirty, report);
  if (!report.remapped) {
    // The incremental repair re-derived the served map: still fresh.
    mark_fresh(report);
    return report;
  }
  // Double the pause per consecutive tick with findings, capped.
  const int shift = std::min(consecutive_remaps_ - 1, 20);
  backoff_until_ = now_ + std::min(kInitialBackoff * (std::int64_t{1} << shift),
                                   kMaxBackoff);

  report.health = catalog_->health()->state;
  report.epoch_after = catalog_->epoch();
  report.at = now_;
  return report;
}

void RefreshLoop::mark_fresh(TickReport& report) {
  consecutive_remaps_ = 0;
  backoff_until_ = common::SimTime{};
  MapCatalog::HealthStatus fresh;
  fresh.checked_at = now_;
  catalog_->set_health(std::move(fresh));
  report.health = MapCatalog::HealthState::kFresh;
  report.epoch_after = catalog_->epoch();
  report.at = now_;
}

mapper::IncrementalResult RefreshLoop::verify(const topo::Topology& map) {
  engine_.set_clock_base(now_);
  mapper::IncrementalConfig inc;
  inc.base = robust_.base;
  inc.repair = false;
  mapper::IncrementalResult result =
      mapper::IncrementalMapper(engine_, map, inc).run();
  now_ = engine_.now();
  return result;
}

void RefreshLoop::set_health(MapCatalog::HealthState state,
                             const MapSnapshot* snapshot,
                             const std::vector<topo::NodeId>& dirty) {
  MapCatalog::HealthStatus status;
  status.state = state;
  status.checked_at = now_;
  if (snapshot) {
    for (const topo::NodeId s : dirty) {
      status.quarantined.push_back(snapshot->map.name(s));
    }
  }
  catalog_->set_health(std::move(status));
}

topo::Topology RefreshLoop::full_remap(std::uint64_t& probes) {
  engine_.set_clock_base(now_);
  engine_.reset();
  mapper::RobustResult session =
      mapper::RobustMapper(engine_, robust_).run();
  now_ = session.elapsed;
  probes += session.probes_used;
  return std::move(session.map);
}

bool RefreshLoop::try_publish(const topo::Topology& map,
                              std::uint64_t based_on_epoch, const char* source,
                              TickReport& report) {
  SnapshotOptions options;
  options.root_name = config_.root_name;
  options.route_seed = config_.route_seed;
  options.source = source;
  options.engine = config_.engine;
  options.optimize = config_.optimize;

  std::optional<MapSnapshot> built;
  try {
    built.emplace(build_snapshot(map, options, now_));
  } catch (const std::exception& e) {
    // The candidate map is unusable (disconnected, lost its root or every
    // host, ...). Not a publish rejection — the rung simply failed.
    SANMAP_LOG(kWarning, "refresh-loop",
               source << " candidate unusable: " << e.what());
    return false;
  }

  // The incremental rung must prove its splice against the live fabric
  // before it may publish: one verification sweep of the candidate map. A
  // wrong splice shows up as a finding and escalates instead of serving a
  // map the fabric contradicts.
  if (report.remap == RemapKind::kIncremental && !report.escalated) {
    const mapper::IncrementalResult validation = verify(built->map);
    report.probes_used += validation.verification_probes;
    if (!validation.unchanged) {
      SANMAP_LOG(kWarning, "refresh-loop",
                 "incremental candidate failed live validation ("
                     << validation.findings.size() << " findings); "
                     << "escalating");
      return false;
    }
  }

  // Only a table the catalog's gate admitted is distributed.
  const MapCatalog::PublishResult outcome =
      catalog_->publish_if_current(std::move(*built), based_on_epoch);
  report.publish_status = to_tick_publish(outcome.status);
  if (!outcome.published()) {
    return false;
  }
  const routing::DistributionResult distribution = routing::distribute_tables(
      *net_, outcome.snapshot->routes, outcome.snapshot->map,
      config_.master_name, now_);
  now_ += distribution.elapsed;
  report.distribution_complete = distribution.complete;
  // An incomplete distribution does not withdraw the snapshot: the routes
  // are proven safe, and the next tick's sweep will catch whatever the
  // missed interfaces imply and remap again.
  return true;
}

void RefreshLoop::remap_and_publish(std::uint64_t based_on_epoch,
                                    const SnapshotPtr& previous,
                                    const std::vector<topo::NodeId>& dirty,
                                    TickReport& report) {
  report.remapped = true;

  // Rung 1: incremental — re-probe only the dirty region, splice into the
  // previous epoch's map.
  bool published = false;
  if (config_.incremental && previous && !dirty.empty()) {
    engine_.set_clock_base(now_);
    engine_.reset();
    try {
      mapper::IncrementalConfig inc;
      inc.base = robust_.base;
      inc.repair = true;
      inc.region = dirty;
      const mapper::IncrementalResult result =
          mapper::IncrementalMapper(engine_, previous->map, inc).run();
      now_ = engine_.now();
      if (topo::isomorphic(result.map, previous->map)) {
        // The repair re-derived the served map, so the findings name
        // devices Theorem 1 leaves out of it: host-less switches of the
        // separated set F bouncing probes on a recorded-free port. Nothing
        // to publish; the repair was part of this tick's check.
        report.remapped = false;
        report.verify_probes += result.probes.total();
        return;
      }
      report.probes_used += result.probes.total();
      report.remap = RemapKind::kIncremental;
      published =
          try_publish(result.map, based_on_epoch, "incremental", report);
    } catch (const std::exception& e) {
      now_ = engine_.now();
      SANMAP_LOG(kWarning, "refresh-loop",
                 "incremental remap failed: " << e.what());
    }
  }

  // Rung 2: full RobustMapper session.
  if (!published) {
    if (report.remap == RemapKind::kIncremental) {
      report.escalated = true;
    }
    std::uint64_t probes = 0;
    const topo::Topology map = full_remap(probes);
    if (previous && topo::isomorphic(map, previous->map)) {
      // As on the incremental rung: the session re-derived the served map,
      // so the findings name devices Theorem 1 leaves out of it. Nothing
      // to publish; the session was part of this tick's check.
      report.remapped = false;
      report.verify_probes += probes;
      return;
    }
    report.probes_used += probes;
    report.remap = RemapKind::kFull;
    published = try_publish(map, based_on_epoch,
                            based_on_epoch == 0 ? "bootstrap" : "remap",
                            report);
  }

  // Rung 3: keep serving the last safe snapshot, degraded.
  if (!published &&
      report.publish_status != TickPublish::kRejectedStale) {
    set_health(MapCatalog::HealthState::kDegraded,
               previous ? previous.get() : nullptr, dirty);
  }
}

std::vector<TickReport> RefreshLoop::run(int ticks) {
  std::vector<TickReport> reports;
  reports.reserve(static_cast<std::size_t>(ticks));
  for (int i = 0; i < ticks; ++i) {
    reports.push_back(tick());
  }
  return reports;
}

}  // namespace sanmap::service
