#include "service/map_catalog.hpp"

#include <algorithm>
#include <utility>

#include "analysis/analyzer.hpp"
#include "common/log.hpp"

namespace sanmap::service {

MapCatalog::MapCatalog(std::size_t history_limit)
    : health_(std::make_shared<const HealthStatus>()),
      history_limit_(history_limit) {}

bool MapCatalog::HealthStatus::quarantines(
    const std::string& switch_name) const {
  return std::binary_search(quarantined.begin(), quarantined.end(),
                            switch_name);
}

MapCatalog::GateStats MapCatalog::gate_stats() const {
  common::MutexLock lock(writer_mutex_);
  return gate_stats_;
}

void MapCatalog::set_health(HealthStatus status) {
  std::sort(status.quarantined.begin(), status.quarantined.end());
  status.quarantined.erase(
      std::unique(status.quarantined.begin(), status.quarantined.end()),
      status.quarantined.end());
  auto fresh = std::make_shared<const HealthStatus>(std::move(status));
  common::MutexLock lock(health_mutex_);
  plain_health_.store(
      fresh->state == HealthState::kFresh && fresh->quarantined.empty(),
      std::memory_order_release);
  health_ = std::move(fresh);
}

MapCatalog::PublishResult MapCatalog::publish(MapSnapshot snapshot) {
  return publish_impl(std::move(snapshot), /*check_stale=*/false, 0);
}

MapCatalog::PublishResult MapCatalog::publish_if_current(
    MapSnapshot snapshot, std::uint64_t based_on_epoch) {
  return publish_impl(std::move(snapshot), /*check_stale=*/true,
                      based_on_epoch);
}

namespace {

/// Collects the ERROR-level diagnostics of a verdict.
std::vector<analysis::Diagnostic> gate_errors_of(
    const analysis::AnalysisResult& verdict) {
  std::vector<analysis::Diagnostic> errors;
  for (const analysis::Diagnostic& d : verdict.report.diagnostics()) {
    if (d.severity == analysis::Severity::kError) {
      errors.push_back(d);
    }
  }
  return errors;
}

}  // namespace

void MapCatalog::lint_staleness(
    const MapSnapshot& snapshot,
    std::vector<analysis::Diagnostic>& errors) const {
  // SL502: a snapshot carrying an epoch stamp (i.e. republished from the
  // archive) that has fallen more than the history window behind the head
  // — old enough that no reader could still compare against it.
  const SnapshotPtr head = current_.load(std::memory_order_acquire);
  const std::uint64_t head_epoch = head ? head->epoch : 0;
  if (snapshot.epoch != 0 && snapshot.epoch + history_limit_ < head_epoch) {
    errors.push_back(analysis::Diagnostic{
        "SL502", analysis::Severity::kError,
        "epoch " + std::to_string(snapshot.epoch),
        "snapshot epoch " + std::to_string(snapshot.epoch) + " is more than " +
            std::to_string(history_limit_) +
            " epochs behind the catalog head (" +
            std::to_string(head_epoch) + ")",
        "recompute the snapshot against the current fabric instead of "
        "republishing an archived epoch"});
  }

  // SL501: an active quarantine, and a candidate built before the
  // quarantine was declared whose routes still cross a quarantined switch.
  // Such a candidate cannot have observed the fault that triggered the
  // quarantine; serving its routes would send traffic straight back into
  // the bad region.
  HealthPtr health;
  {
    common::MutexLock lock(health_mutex_);
    health = health_;
  }
  if (health->state == HealthState::kFresh || health->quarantined.empty() ||
      snapshot.created_at > health->checked_at) {
    return;
  }
  // The switches some route crosses: those with a state on some tree.
  const routing::RouteTable& table = snapshot.routes.routes;
  std::vector<bool> crossed(table.num_switches(), false);
  table.for_each_tree([&](const routing::RouteTable::Tree& tree) {
    for (const std::uint32_t x : tree.order) {
      crossed[x / 2] = true;
    }
  });
  std::vector<std::string> routed;
  for (std::uint32_t s = 0; s < crossed.size(); ++s) {
    if (crossed[s]) {
      routed.push_back(snapshot.map.name(table.state_switch(2 * s)));
    }
  }
  std::sort(routed.begin(), routed.end());
  for (const std::string& name : health->quarantined) {
    if (std::binary_search(routed.begin(), routed.end(), name)) {
      errors.push_back(analysis::Diagnostic{
          "SL501", analysis::Severity::kError, name,
          "switch " + name +
              " is quarantined but the candidate's route set (built before "
              "the quarantine) still routes through it",
          "remap against the live fabric so the candidate reflects the "
          "quarantined breakage"});
    }
  }
}

MapCatalog::PublishResult MapCatalog::publish_impl(
    MapSnapshot snapshot, bool check_stale, std::uint64_t based_on_epoch) {
  // The safety gate, before taking the writer lock (the analyzer is the
  // expensive part; readers of at_epoch()/history should not queue behind
  // it): legality + deadlock certificates, each re-validated by its
  // independent checker, and the structural lints. It is the one proof a
  // snapshot gets; certify() writes its verdict into the snapshot.
  std::vector<analysis::Diagnostic> errors =
      gate_errors_of(certify(snapshot));

  common::MutexLock lock(writer_mutex_);
  ++gate_stats_.incremental_escalated;
  const SnapshotPtr old = current_.load(std::memory_order_acquire);
  const std::uint64_t current_epoch = old ? old->epoch : 0;
  if (errors.empty()) {
    if (check_stale && current_epoch != based_on_epoch) {
      rejected_stale_.fetch_add(1, std::memory_order_relaxed);
      return PublishResult{PublishStatus::kRejectedStale, current_epoch, {},
                           nullptr};
    }
    // The SL5xx staleness lints depend on catalog state (quarantine,
    // history window), so they run under the lock.
    lint_staleness(snapshot, errors);
    if (!errors.empty()) {
      ++gate_stats_.rejected_stale_lints;
    }
  }
  if (!errors.empty()) {
    rejected_unsafe_.fetch_add(1, std::memory_order_relaxed);
    SANMAP_LOG(kWarning, "map-catalog",
               "refusing snapshot from " << snapshot.options.source << ": "
                                         << errors.size()
                                         << " error(s), first: "
                                         << errors.front().code << " "
                                         << errors.front().message);
    return PublishResult{PublishStatus::kRejectedUnsafe, current_epoch,
                         std::move(errors), nullptr};
  }

  snapshot.epoch = next_epoch_++;
  auto published =
      std::make_shared<const MapSnapshot>(std::move(snapshot));
  history_.push_back(published);
  while (history_.size() > history_limit_) {
    history_.pop_front();
  }
  current_.store(published, std::memory_order_release);
  // A fresh epoch supersedes any quarantine: the new snapshot was just
  // validated against the fabric (checked at its build instant).
  HealthStatus fresh;
  fresh.checked_at = published->created_at;
  {
    common::MutexLock health_lock(health_mutex_);
    health_ = std::make_shared<const HealthStatus>(std::move(fresh));
    plain_health_.store(true, std::memory_order_release);
  }
  published_.fetch_add(1, std::memory_order_relaxed);
  return PublishResult{PublishStatus::kPublished, published->epoch, {},
                       published};
}

SnapshotPtr MapCatalog::at_epoch(std::uint64_t epoch) const {
  common::MutexLock lock(writer_mutex_);
  for (const SnapshotPtr& snap : history_) {
    if (snap->epoch == epoch) {
      return snap;
    }
  }
  return nullptr;
}

std::vector<std::uint64_t> MapCatalog::history_epochs() const {
  common::MutexLock lock(writer_mutex_);
  std::vector<std::uint64_t> epochs;
  epochs.reserve(history_.size());
  for (const SnapshotPtr& snap : history_) {
    epochs.push_back(snap->epoch);
  }
  return epochs;
}

const char* to_string(MapCatalog::PublishStatus status) {
  switch (status) {
    case MapCatalog::PublishStatus::kPublished:
      return "published";
    case MapCatalog::PublishStatus::kRejectedUnsafe:
      return "rejected-unsafe";
    case MapCatalog::PublishStatus::kRejectedStale:
      return "rejected-stale";
  }
  return "?";
}

const char* to_string(MapCatalog::HealthState state) {
  switch (state) {
    case MapCatalog::HealthState::kFresh:
      return "fresh";
    case MapCatalog::HealthState::kStaleServing:
      return "stale-serving";
    case MapCatalog::HealthState::kDegraded:
      return "degraded";
  }
  return "?";
}

}  // namespace sanmap::service
