#include "service/refresh_loop.hpp"

#include <algorithm>
#include <deque>
#include <exception>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "mapper/incremental.hpp"
#include "topology/algorithms.hpp"

namespace sanmap::service {

namespace {

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
  SANMAP_CHECK_MSG(config.dirty_radius >= 0,
                   "RefreshConfig::dirty_radius must be non-negative; got "
                       << config.dirty_radius);
  SANMAP_CHECK_MSG(config.initial_backoff >= common::SimTime{},
                   "RefreshConfig::initial_backoff must be non-negative");
  SANMAP_CHECK_MSG(config.budget_horizon > common::SimTime{},
                   "RefreshConfig::budget_horizon must be positive");
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
  if (config_.robust.base.search_depth <= 0) {
    config_.robust.base.search_depth =
        topo::search_depth(net.topology(), master_) + 2;
  }
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

  const routing::RouteHealthReport health =
      routing::check_routes(*net_, snapshot->routes, snapshot->map, now_);
  now_ += health.elapsed;
  report.routes_checked = health.routes_checked;
  report.broken = health.broken.size();

  if (health.healthy()) {
    // Every served route just worked against the live fabric: the snapshot
    // is fresh again, whatever the previous quarantine said (a revived
    // link, or a flapper caught in its up phase — the next breakage tick
    // re-quarantines).
    consecutive_remaps_ = 0;
    backoff_until_ = common::SimTime{};
    MapCatalog::HealthStatus fresh;
    fresh.checked_at = now_;
    catalog_->set_health(std::move(fresh));
    report.health = MapCatalog::HealthState::kFresh;
    report.epoch_after = catalog_->epoch();
    report.at = now_;
    return report;
  }

  SANMAP_LOG(kInfo, "refresh-loop",
             "epoch " << snapshot->epoch << ": " << report.broken << "/"
                      << report.routes_checked << " routes broken");

  const std::vector<topo::NodeId> dirty =
      localize_dirty(*snapshot, health.broken);
  report.dirty_switches = dirty.size();
  // Quarantine the dirty region right away: readers stop getting routes
  // through it even before the remap lands (or when the dampers below skip
  // the remap entirely).
  set_health(MapCatalog::HealthState::kStaleServing, snapshot.get(), dirty);

  // Storm dampers: skip the remap while backing off or out of probe budget
  // for this horizon — but keep the downgraded health visible.
  if (config_.initial_backoff > common::SimTime{} && now_ < backoff_until_) {
    report.backoff_active = true;
    report.health = catalog_->health()->state;
    report.epoch_after = catalog_->epoch();
    report.at = now_;
    return report;
  }
  if (config_.horizon_probe_budget > 0) {
    if (now_ >= budget_window_start_ + config_.budget_horizon) {
      budget_window_start_ = now_;
      budget_window_probes_ = 0;
    }
    if (budget_window_probes_ >= config_.horizon_probe_budget) {
      report.budget_exhausted = true;
      report.health = catalog_->health()->state;
      report.epoch_after = catalog_->epoch();
      report.at = now_;
      return report;
    }
  }

  ++consecutive_remaps_;
  remap_and_publish(snapshot->epoch, snapshot, dirty, report);
  budget_window_probes_ += report.probes_used;
  if (config_.initial_backoff > common::SimTime{}) {
    // Double the pause per consecutive breakage tick, capped.
    const int shift = std::min(consecutive_remaps_ - 1, 20);
    common::SimTime delay = config_.initial_backoff * (std::int64_t{1} << shift);
    delay = std::min(delay, config_.max_backoff);
    backoff_until_ = now_ + delay;
  }

  report.health = catalog_->health()->state;
  report.epoch_after = catalog_->epoch();
  report.at = now_;
  return report;
}

std::vector<topo::NodeId> RefreshLoop::localize_dirty(
    const MapSnapshot& snapshot,
    const std::vector<routing::BrokenRoute>& broken) const {
  // Each broken route's path is a witness: the fault lies on it somewhere.
  std::vector<std::vector<topo::NodeId>> witnesses;
  witnesses.reserve(broken.size());
  for (const routing::BrokenRoute& b : broken) {
    const auto s = snapshot.map.find_host(b.src);
    const auto d = snapshot.map.find_host(b.dst);
    if (!s || !d) {
      continue;
    }
    const auto it = snapshot.routes.routes.find({*s, *d});
    if (it == snapshot.routes.routes.end()) {
      continue;
    }
    std::vector<topo::NodeId> path;
    for (const topo::NodeId n : it->second.nodes) {
      if (snapshot.map.is_switch(n)) {
        path.push_back(n);
      }
    }
    if (!path.empty()) {
      witnesses.push_back(std::move(path));
    }
  }

  // Greedy hitting set: repeatedly pick the switch on the most unexplained
  // witnesses. A single dead wire breaks exactly the routes crossing it,
  // and both endpoint switches sit on every one of those paths, so one
  // pick (plus the radius) covers a single-region fault.
  std::vector<topo::NodeId> seeds;
  std::vector<bool> covered(witnesses.size(), false);
  std::size_t uncovered = witnesses.size();
  while (uncovered > 0) {
    std::unordered_map<topo::NodeId, std::size_t> score;
    for (std::size_t i = 0; i < witnesses.size(); ++i) {
      if (covered[i]) {
        continue;
      }
      for (const topo::NodeId n : witnesses[i]) {
        ++score[n];
      }
    }
    topo::NodeId best = topo::kInvalidNode;
    std::size_t best_score = 0;
    for (const auto& [n, count] : score) {
      if (count > best_score || (count == best_score && n < best)) {
        best = n;
        best_score = count;
      }
    }
    if (best == topo::kInvalidNode) {
      break;
    }
    seeds.push_back(best);
    for (std::size_t i = 0; i < witnesses.size(); ++i) {
      if (!covered[i] && std::find(witnesses[i].begin(), witnesses[i].end(),
                                   best) != witnesses[i].end()) {
        covered[i] = true;
        --uncovered;
      }
    }
  }

  // Expand by the radius over the snapshot map's switch graph.
  std::unordered_set<topo::NodeId> region(seeds.begin(), seeds.end());
  std::deque<std::pair<topo::NodeId, int>> frontier;
  for (const topo::NodeId s : seeds) {
    frontier.emplace_back(s, 0);
  }
  while (!frontier.empty()) {
    const auto [n, depth] = frontier.front();
    frontier.pop_front();
    if (depth >= config_.dirty_radius) {
      continue;
    }
    for (const topo::PortRef& ref : snapshot.map.neighbors(n)) {
      if (snapshot.map.is_switch(ref.node) && region.insert(ref.node).second) {
        frontier.emplace_back(ref.node, depth + 1);
      }
    }
  }

  std::vector<topo::NodeId> out(region.begin(), region.end());
  std::sort(out.begin(), out.end());
  return out;
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

topo::Topology RefreshLoop::full_remap(TickReport& report) {
  engine_.set_clock_base(now_);
  engine_.reset();
  mapper::RobustResult session =
      mapper::RobustMapper(engine_, config_.robust).run();
  now_ = session.elapsed;
  report.probes_used += session.probes_used;
  return std::move(session.map);
}

bool RefreshLoop::try_publish(const topo::Topology& map,
                              std::uint64_t based_on_epoch, const char* source,
                              bool record_rejection, TickReport& report) {
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
  MapSnapshot& snapshot = *built;

  // The deadlock gate: an unverified table is never distributed, let alone
  // published (the catalog would refuse it anyway; checking here spares the
  // fabric the table traffic).
  if (!snapshot.deadlock_free || !snapshot.compliant) {
    if (record_rejection) {
      report.publish_status = TickPublish::kRejectedUnsafe;
      catalog_->publish_if_current(std::move(snapshot), based_on_epoch);
    }
    return false;
  }

  // The incremental rung must prove its splice against the live fabric
  // before it may publish: fire every candidate route and require all of
  // them to arrive. A wrong splice fails here and escalates instead of
  // serving routes the fabric contradicts.
  if (report.remap == RemapKind::kIncremental && !report.escalated) {
    const routing::RouteHealthReport validation =
        routing::check_routes(*net_, snapshot.routes, snapshot.map, now_);
    now_ += validation.elapsed;
    if (!validation.healthy()) {
      SANMAP_LOG(kWarning, "refresh-loop",
                 "incremental candidate failed live validation ("
                     << validation.broken.size() << "/"
                     << validation.routes_checked << " routes); escalating");
      return false;
    }
  }

  if (config_.distribute) {
    const routing::DistributionResult distribution = routing::distribute_tables(
        *net_, snapshot.routes, snapshot.map, config_.master_name, now_);
    now_ += distribution.elapsed;
    report.distribution_complete = distribution.complete;
    // An incomplete distribution is not a reason to withhold the snapshot:
    // the routes are verified safe, and the next tick's health check will
    // catch whatever the missed interfaces imply and remap again.
  } else {
    report.distribution_complete = true;
  }

  const MapCatalog::PublishResult outcome =
      catalog_->publish_if_current(std::move(snapshot), based_on_epoch);
  report.publish_status = to_tick_publish(outcome.status);
  return outcome.published();
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
      inc.base = config_.robust.base;
      inc.repair = true;
      inc.region = dirty;
      const mapper::IncrementalResult result =
          mapper::IncrementalMapper(engine_, previous->map, inc).run();
      now_ = engine_.now();
      report.probes_used += result.probes.total();
      report.remap = RemapKind::kIncremental;
      published = try_publish(result.map, based_on_epoch, "incremental",
                              /*record_rejection=*/false, report);
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
    const topo::Topology map = full_remap(report);
    report.remap = RemapKind::kFull;
    published = try_publish(map, based_on_epoch,
                            based_on_epoch == 0 ? "bootstrap" : "remap",
                            /*record_rejection=*/true, report);
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
