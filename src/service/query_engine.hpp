// Concurrent route-query serving over the current catalog snapshot.
//
// This is the read side of the map service: given host names, answer "how
// do I get from A to B" (the source-route turn sequence a NIC would
// prepend), "can I reach B at all", and "what does the fabric look like" —
// across many threads at once. Every answer is computed against exactly one
// immutable snapshot and is stamped with that snapshot's epoch, so a caller
// can tell when two answers straddled a republish.
//
// Scaling discipline: the expensive part of a query is not the lookup but
// the shared state it touches. Each worker acquires the current snapshot
// once per *chunk* of queries (one atomic shared_ptr load, one ref-count
// bump), not once per query — per-query acquisition would make every core
// hammer the same ref-count cache line and flatten the scaling curve. The
// cost is epoch granularity of a chunk, which is exactly the staleness a
// real NIC has between table pushes anyway.
// A single route() call acquires the snapshot itself, but writes no other
// shared line: its counters go to a per-thread tally, and while the
// snapshot is fresh with nothing quarantined its health is one flag read
// (MapCatalog::query_health), not a locked pointer copy.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "service/map_catalog.hpp"
#include "simnet/route.hpp"

namespace sanmap::service {

struct RouteQuery {
  std::string src;
  std::string dst;
};

enum class QueryStatus : std::uint8_t {
  /// A trusted route was returned.
  kOk,
  /// No such hosts / no route in the snapshot.
  kNotFound,
  /// A route exists in the snapshot but crosses the quarantined dirty
  /// region — the service no longer trusts it, so it is withheld.
  kDegraded,
};

const char* to_string(QueryStatus status);

struct RouteAnswer {
  /// Both hosts exist in the snapshot's map and a trusted route connects
  /// them (== status kOk).
  bool found = false;
  QueryStatus status = QueryStatus::kNotFound;
  /// Epoch of the snapshot that produced this answer (0 = catalog empty).
  std::uint64_t epoch = 0;
  int hops = 0;
  /// The source-route turn sequence (empty unless found).
  simnet::Route turns;
  /// How far the fabric is known to have moved past this snapshot: the
  /// writer's last health-check instant minus the snapshot's build instant
  /// (zero while fresh). Observable staleness per read.
  common::SimTime stale_age{};
};

/// Fabric summary computed from the current snapshot.
struct FabricStats {
  std::uint64_t epoch = 0;
  std::size_t hosts = 0;
  std::size_t switches = 0;
  std::size_t wires = 0;
  std::size_t routes = 0;
  double mean_hops = 0.0;
  int max_hops = 0;
  bool deadlock_free = false;
};

class RouteQueryEngine {
 public:
  explicit RouteQueryEngine(const MapCatalog& catalog) : catalog_(&catalog) {}

  /// Answers one query against the current snapshot.
  [[nodiscard]] RouteAnswer route(const std::string& src,
                                  const std::string& dst) const;

  /// Answers against an explicit snapshot (the per-chunk inner loop; also
  /// lets tests pin an epoch). `health` may be null (treated as fresh).
  [[nodiscard]] static RouteAnswer route_on(
      const MapSnapshot& snapshot, const std::string& src,
      const std::string& dst,
      const MapCatalog::HealthStatus* health = nullptr);

  /// True when a route src -> dst exists in the current snapshot.
  [[nodiscard]] bool reachable(const std::string& src,
                               const std::string& dst) const;

  /// Topology + route-quality stats of the current snapshot (all zero when
  /// the catalog is empty).
  [[nodiscard]] FabricStats stats() const;

  /// Answers a batch across the pool: queries are split into chunks of
  /// `chunk_size`, each chunk served against one snapshot acquisition.
  /// Answer i corresponds to queries[i].
  [[nodiscard]] std::vector<RouteAnswer> run_batch(
      const std::vector<RouteQuery>& queries, common::ThreadPool& pool,
      std::size_t chunk_size = 1024) const;

  /// Lifetime query counters (relaxed; exact totals once readers quiesce).
  [[nodiscard]] std::uint64_t served() const { return sum(&Tally::served); }
  [[nodiscard]] std::uint64_t misses() const { return sum(&Tally::misses); }
  /// Queries refused because their route crossed the quarantine (a subset
  /// of misses()).
  [[nodiscard]] std::uint64_t degraded() const {
    return sum(&Tally::degraded);
  }

 private:
  /// One reader thread's share of the counters, on a cache line of its
  /// own, so concurrent readers never write the same line per query.
  struct alignas(64) Tally {
    std::atomic<std::uint64_t> served{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> degraded{0};
  };
  /// The calling thread's tally (threads are dealt tallies round-robin).
  [[nodiscard]] Tally& tally() const;
  [[nodiscard]] std::uint64_t sum(
      std::atomic<std::uint64_t> Tally::*counter) const;

  const MapCatalog* catalog_;
  mutable std::array<Tally, 16> tallies_;
};

}  // namespace sanmap::service
