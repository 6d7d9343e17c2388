// The versioned snapshot store at the heart of the map service.
//
// Readers (route queries, many threads) and the single refresh writer meet
// here, RCU-style: `current()` is one atomic shared_ptr load — readers
// never take a lock, never block behind a publish, and can never observe a
// torn snapshot, because a snapshot is immutable and replaced wholesale.
// A reader that loaded epoch N keeps its snapshot alive by reference count
// even after epoch N+1 lands; grace periods are implicit in shared_ptr.
//
// Publishing is gated twice:
//  * safety — every candidate snapshot is re-analyzed by the full static
//    analyzer (src/analysis): UP*/DOWN* legality per route, explicit
//    channel-dependency deadlock certificate, model well-formedness and
//    route-table structure lints. Any ERROR-level diagnostic (or a build
//    verdict that already said unsafe) refuses the publish outright; an
//    unsafe route table must never become current (Dally & Seitz; the
//    paper's §5.5 guarantee). The analyzer runs before the writer lock;
//    the SL501/SL502 staleness lints, which read catalog state, run under
//    it. The refusing diagnostics travel back in the PublishResult;
//  * staleness — publish_if_current(snapshot, based_on_epoch) refuses when
//    the catalog moved past `based_on_epoch`, so a slow remap that raced a
//    faster one cannot clobber fresher routes with older ones.
//
// A bounded history of recent epochs is kept for diagnostics and for
// readers that need to compare across a swap.
//
// Degraded-mode serving: alongside the snapshot the catalog carries a
// HealthStatus — how much the writer currently trusts `current()`. The
// refresh loop downgrades it when check_routes finds breakage it has not
// yet remapped (kStaleServing, with the dirty switches quarantined) and
// when even a full remap failed (kDegraded). Queries keep being answered
// from the last safe snapshot — an old safe table beats no table — but a
// route through a quarantined switch is refused (see RouteQueryEngine), and
// every reader can observe how stale its answer is. Publishing a new epoch
// resets health to kFresh atomically with the swap. Health never weakens
// the publish gates: an unsafe table is refused no matter the state.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/diagnostics.hpp"
#include "common/sim_time.hpp"
#include "common/thread_annotations.hpp"
#include "service/snapshot.hpp"

namespace sanmap::service {

class MapCatalog {
 public:
  /// Keeps the most recent `history_limit` published snapshots reachable
  /// via at_epoch() (current is always reachable regardless).
  explicit MapCatalog(std::size_t history_limit = 8);

  enum class PublishStatus : std::uint8_t {
    kPublished,
    /// Refused: the static analyzer found an ERROR-level diagnostic (or
    /// the snapshot's own build verdict said unsafe).
    kRejectedUnsafe,
    /// Refused: the catalog advanced past the epoch the snapshot was
    /// computed against (a concurrent publisher won the race).
    kRejectedStale,
  };

  struct PublishResult {
    PublishStatus status = PublishStatus::kRejectedUnsafe;
    /// The snapshot's new epoch when published; the catalog's current
    /// epoch at decision time when rejected.
    std::uint64_t epoch = 0;
    /// kRejectedUnsafe only: the ERROR-level diagnostics that refused the
    /// snapshot (empty for the legacy unsafe-flag path).
    std::vector<analysis::Diagnostic> gate_errors;

    [[nodiscard]] bool published() const {
      return status == PublishStatus::kPublished;
    }
  };

  /// Publishes unconditionally (no staleness check): assigns the next
  /// epoch, swaps `current`, and records history. Still refuses unsafe
  /// snapshots.
  PublishResult publish(MapSnapshot snapshot)
      SANMAP_EXCLUDES(writer_mutex_, health_mutex_);

  /// Compare-and-publish: succeeds only while the current epoch is still
  /// `based_on_epoch` (0 = publishing the first snapshot ever).
  PublishResult publish_if_current(MapSnapshot snapshot,
                                   std::uint64_t based_on_epoch)
      SANMAP_EXCLUDES(writer_mutex_, health_mutex_);

  /// The current snapshot — one lock-free atomic load. Null until the
  /// first publish.
  [[nodiscard]] SnapshotPtr current() const {
    return current_.load(std::memory_order_acquire);
  }

  /// The current epoch; 0 until the first publish.
  [[nodiscard]] std::uint64_t epoch() const {
    const SnapshotPtr snap = current();
    return snap ? snap->epoch : 0;
  }

  // -- health ---------------------------------------------------------------

  enum class HealthState : std::uint8_t {
    /// The current snapshot matches the fabric as of the last check.
    kFresh,
    /// Known breakage not yet remapped; serving continues outside the
    /// quarantined region.
    kStaleServing,
    /// Remap attempts failed; the last safe snapshot is served as-is with
    /// the quarantine still in force.
    kDegraded,
  };

  struct HealthStatus {
    HealthState state = HealthState::kFresh;
    /// Switch names (sorted, unique) of the quarantined dirty region in the
    /// current snapshot's map. Names, not ids: ids do not survive the remap
    /// compaction, names do.
    std::vector<std::string> quarantined;
    /// Virtual instant the writer last validated (or downgraded) the
    /// current snapshot against the fabric.
    common::SimTime checked_at{};

    [[nodiscard]] bool quarantines(const std::string& switch_name) const;
  };
  using HealthPtr = std::shared_ptr<const HealthStatus>;

  /// The current health — a pointer copy under its own (uncontended)
  /// mutex, never null. Not atomic<shared_ptr> like current_: libstdc++'s
  /// lock-bit protocol releases the reader side with a relaxed RMW, which
  /// TSan cannot order against the next writer's store — the TSan CI job
  /// flags it. Health is read once per query (or per batch chunk), so a
  /// plain mutex here costs nanoseconds and is provably clean.
  [[nodiscard]] HealthPtr health() const SANMAP_EXCLUDES(health_mutex_) {
    common::MutexLock lock(health_mutex_);
    return health_;
  }

  /// Writer-side: replaces the health status (sorts/dedups the quarantine
  /// set). Publishing a snapshot resets health to kFresh implicitly.
  void set_health(HealthStatus status) SANMAP_EXCLUDES(health_mutex_);

  /// A recent snapshot by epoch, if still within the history window.
  [[nodiscard]] SnapshotPtr at_epoch(std::uint64_t epoch) const
      SANMAP_EXCLUDES(writer_mutex_);

  /// Epochs currently retrievable through at_epoch(), oldest first.
  [[nodiscard]] std::vector<std::uint64_t> history_epochs() const
      SANMAP_EXCLUDES(writer_mutex_);

  struct Stats {
    std::uint64_t published = 0;
    std::uint64_t rejected_unsafe = 0;
    std::uint64_t rejected_stale = 0;
  };
  [[nodiscard]] Stats stats() const {
    return Stats{published_.load(std::memory_order_relaxed),
                 rejected_unsafe_.load(std::memory_order_relaxed),
                 rejected_stale_.load(std::memory_order_relaxed)};
  }

  /// What the safety gate has done. The two incremental_* names survive
  /// from a retired dirty-region gate so existing readers keep working:
  /// every candidate is now analysed from scratch, so incremental_fast is
  /// always 0 and incremental_escalated counts every analysed candidate.
  struct GateStats {
    std::uint64_t incremental_fast = 0;
    /// Candidates the gate ran the full static analyzer on.
    std::uint64_t incremental_escalated = 0;
    /// Candidates refused by the SL501/SL502 staleness lints.
    std::uint64_t rejected_stale_lints = 0;
  };
  [[nodiscard]] GateStats gate_stats() const SANMAP_EXCLUDES(writer_mutex_);

 private:
  PublishResult publish_impl(MapSnapshot snapshot, bool check_stale,
                             std::uint64_t based_on_epoch)
      SANMAP_EXCLUDES(writer_mutex_, health_mutex_);

  /// The SL5xx staleness lints, evaluated under writer_mutex_ against the
  /// catalog's own state (quarantine + history window). Appends ERROR
  /// diagnostics for violations.
  void lint_staleness(const MapSnapshot& snapshot,
                      std::vector<analysis::Diagnostic>& errors) const
      SANMAP_REQUIRES(writer_mutex_) SANMAP_EXCLUDES(health_mutex_);

  /// The hot pointer readers load. Writers store under writer_mutex_.
  /// Note for TSan runs: libstdc++'s atomic<shared_ptr> unlocks its
  /// internal lock bit with a relaxed RMW on the reader side, which TSan
  /// reports as a race against the next store — tsan.supp carries the
  /// targeted suppression and the full explanation.
  std::atomic<SnapshotPtr> current_{nullptr};
  /// Health readers copy under health_mutex_ (see health()). Never null.
  mutable common::Mutex health_mutex_;
  HealthPtr health_ SANMAP_GUARDED_BY(health_mutex_);

  /// Serializes publishers and guards history_ / next_epoch_ /
  /// gate_stats_.
  mutable common::Mutex writer_mutex_;
  std::deque<SnapshotPtr> history_ SANMAP_GUARDED_BY(writer_mutex_);
  std::size_t history_limit_ SANMAP_GUARDED_BY(writer_mutex_);
  std::uint64_t next_epoch_ SANMAP_GUARDED_BY(writer_mutex_) = 1;
  GateStats gate_stats_ SANMAP_GUARDED_BY(writer_mutex_);

  std::atomic<std::uint64_t> published_{0};
  std::atomic<std::uint64_t> rejected_unsafe_{0};
  std::atomic<std::uint64_t> rejected_stale_{0};
};

const char* to_string(MapCatalog::PublishStatus status);
const char* to_string(MapCatalog::HealthState state);

}  // namespace sanmap::service
