// The map service layer: versioned catalog, concurrent query engine,
// refresh loop, and the binary snapshot codec.
//
//  * MapSnapshot — building bundles map, routes, and the deadlock verdict;
//  * MapCatalog — monotonic epochs, unsafe-snapshot refusal, stale-epoch
//    compare-and-publish, bounded history;
//  * RouteQueryEngine — answers match the router, batches fan out over the
//    thread pool, misses are counted;
//  * concurrency — readers race a publisher (and a live RefreshLoop) and
//    must only ever observe fully published epochs. These tests are the
//    TSan CI job's primary target;
//  * RefreshLoop — quiet ticks observe, a link death triggers remap +
//    verify + redistribute + epoch swap;
//  * codec — round trip, checksum/truncation/magic failures, file I/O.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <thread>

#include "analysis/certificates.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "routing/route_health.hpp"
#include "service/map_catalog.hpp"
#include "service/query_engine.hpp"
#include "service/refresh_loop.hpp"
#include "service/snapshot_codec.hpp"
#include "simnet/fault_schedule.hpp"
#include "simnet/network.hpp"
#include "topology/generators.hpp"
#include "topology/isomorphism.hpp"

namespace sanmap::service {
namespace {

using common::SimTime;
using topo::NodeId;
using topo::Topology;

MapSnapshot make_snapshot(const Topology& t, std::uint64_t seed = 1) {
  SnapshotOptions options;
  options.route_seed = seed;
  options.source = "test";
  return build_snapshot(t, options, SimTime{});
}

/// A switch-to-switch wire of `t` (redundant on a torus: killing it leaves
/// every host reachable).
topo::WireId switch_wire(const Topology& t) {
  for (const topo::WireId w : t.wires()) {
    const topo::Wire& wire = t.wire(w);
    if (t.is_switch(wire.a.node) && t.is_switch(wire.b.node)) {
      return w;
    }
  }
  return t.wires().front();
}

// --------------------------------------------------------------- snapshot --

TEST(Snapshot, BuildBundlesRoutesWithTheSafetyVerdict) {
  const Topology t = topo::torus(3, 3, 1);
  const MapSnapshot snap = make_snapshot(t);
  EXPECT_EQ(snap.epoch, 0u);  // unassigned until published
  EXPECT_TRUE(snap.deadlock_free);
  EXPECT_TRUE(snap.compliant);
  EXPECT_EQ(snap.routes.routes.size(), 9u * 8u);
  EXPECT_GT(snap.channels, 0u);
  EXPECT_GT(snap.dependencies, 0u);
  EXPECT_GT(snap.mean_hops, 0.0);
  EXPECT_GE(snap.max_hops, 2);
}

TEST(Snapshot, RootOverrideResolvesBySwitchName) {
  const Topology t = topo::torus(3, 3, 1);
  const std::string root_name = t.name(t.switches().back());
  SnapshotOptions options;
  options.root_name = root_name;
  const MapSnapshot snap = build_snapshot(t, options, SimTime{});
  EXPECT_EQ(snap.map.name(snap.routes.orientation.root()), root_name);
}

TEST(Snapshot, EmptyRouteSetIsValid) {
  // One switch, one host: no host pairs. Trivially deadlock-free.
  Topology t;
  const NodeId s = t.add_switch();
  const NodeId h = t.add_host("only");
  t.connect(h, 0, s, 0);
  const MapSnapshot snap = make_snapshot(t);
  EXPECT_TRUE(snap.deadlock_free);
  EXPECT_TRUE(snap.routes.routes.empty());
  EXPECT_EQ(snap.mean_hops, 0.0);
}

// ---------------------------------------------------------------- catalog --

TEST(MapCatalog, PublishAssignsMonotonicEpochs) {
  const Topology t = topo::torus(3, 3, 1);
  MapCatalog catalog;
  EXPECT_EQ(catalog.epoch(), 0u);
  EXPECT_EQ(catalog.current(), nullptr);

  const auto first = catalog.publish(make_snapshot(t, 1));
  ASSERT_TRUE(first.published());
  EXPECT_EQ(first.epoch, 1u);
  const auto second = catalog.publish(make_snapshot(t, 2));
  ASSERT_TRUE(second.published());
  EXPECT_EQ(second.epoch, 2u);

  const SnapshotPtr current = catalog.current();
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->epoch, 2u);
  EXPECT_EQ(current->options.route_seed, 2u);
  EXPECT_EQ(catalog.stats().published, 2u);
}

TEST(MapCatalog, RefusesUnsafeSnapshots) {
  const Topology t = topo::torus(3, 3, 1);
  MapCatalog catalog;
  catalog.publish(make_snapshot(t));

  MapSnapshot unsafe = make_snapshot(t);
  unsafe.deadlock_free = false;  // simulate a failed verification
  const auto outcome = catalog.publish(std::move(unsafe));
  EXPECT_EQ(outcome.status, MapCatalog::PublishStatus::kRejectedUnsafe);
  EXPECT_EQ(outcome.epoch, 1u);          // the surviving epoch
  EXPECT_EQ(catalog.epoch(), 1u);        // current unchanged
  EXPECT_EQ(catalog.stats().rejected_unsafe, 1u);
}

TEST(MapCatalog, GateStatsCountEveryAnalysedCandidate) {
  Topology t = topo::torus(3, 3, 1);
  MapCatalog catalog;

  // Three healthy candidates under wire churn: each one is analysed from
  // scratch, which GateStats reports as an escalation; none is fast.
  ASSERT_TRUE(catalog.publish(make_snapshot(t, 1)).published());
  t.disconnect(switch_wire(t));
  ASSERT_TRUE(catalog.publish(make_snapshot(t, 2)).published());
  ASSERT_TRUE(catalog.publish(make_snapshot(t, 3)).published());
  MapCatalog::GateStats stats = catalog.gate_stats();
  EXPECT_EQ(stats.incremental_escalated, 3u);
  EXPECT_EQ(stats.incremental_fast, 0u);

  // A candidate refused by the analyzer was analysed too; one whose build
  // verdict already says unsafe is refused without analysis.
  MapSnapshot tampered = make_snapshot(t, 4);
  ASSERT_FALSE(
      analysis::inject_down_up_turn(tampered.map, tampered.routes).empty());
  EXPECT_FALSE(catalog.publish(std::move(tampered)).published());
  MapSnapshot flagged = make_snapshot(t, 5);
  flagged.deadlock_free = false;
  EXPECT_FALSE(catalog.publish(std::move(flagged)).published());
  stats = catalog.gate_stats();
  EXPECT_EQ(stats.incremental_escalated, 4u);
  EXPECT_EQ(stats.incremental_fast, 0u);
  EXPECT_EQ(stats.rejected_stale_lints, 0u);
  EXPECT_EQ(catalog.epoch(), 3u);
}

TEST(MapCatalog, SL502RefusesRepublishingAnArchivedEpoch) {
  const Topology t = topo::torus(3, 3, 1);
  MapCatalog catalog(/*history_limit=*/2);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ASSERT_TRUE(catalog.publish(make_snapshot(t, i)).published());
  }
  ASSERT_EQ(catalog.epoch(), 5u);

  // An archived snapshot still carries its old epoch stamp; epoch 1 is
  // more than history_limit behind the head.
  MapSnapshot archived = make_snapshot(t, 1);
  archived.epoch = 1;
  const auto refused = catalog.publish(std::move(archived));
  EXPECT_EQ(refused.status, MapCatalog::PublishStatus::kRejectedUnsafe);
  ASSERT_EQ(refused.gate_errors.size(), 1u);
  EXPECT_EQ(refused.gate_errors.front().code, "SL502");
  EXPECT_EQ(catalog.gate_stats().rejected_stale_lints, 1u);
  EXPECT_EQ(catalog.epoch(), 5u);

  // Epoch 4 is within the window: republishable (it gets a new epoch).
  MapSnapshot recent = make_snapshot(t, 4);
  recent.epoch = 4;
  EXPECT_TRUE(catalog.publish(std::move(recent)).published());
}

TEST(MapCatalog, SL501RefusesPreQuarantineCandidates) {
  const Topology t = topo::torus(3, 3, 1);
  MapCatalog catalog;
  ASSERT_TRUE(catalog.publish(make_snapshot(t)).published());

  // Quarantine a switch that the all-pairs route set traverses.
  const SnapshotPtr current = catalog.current();
  std::string victim;
  for (const auto& [key, route] : current->routes.routes) {
    for (const NodeId n : route.nodes) {
      if (current->map.is_switch(n)) {
        victim = current->map.name(n);
        break;
      }
    }
    if (!victim.empty()) {
      break;
    }
  }
  ASSERT_FALSE(victim.empty());
  MapCatalog::HealthStatus health;
  health.state = MapCatalog::HealthState::kStaleServing;
  health.quarantined = {victim};
  health.checked_at = SimTime::ms(100);
  catalog.set_health(std::move(health));

  // A candidate built BEFORE the quarantine was declared cannot have
  // observed the fault; SL501 refuses it.
  SnapshotOptions options;
  options.source = "test";
  MapSnapshot stale = build_snapshot(t, options, SimTime::ms(50));
  const auto refused = catalog.publish(std::move(stale));
  EXPECT_EQ(refused.status, MapCatalog::PublishStatus::kRejectedUnsafe);
  ASSERT_FALSE(refused.gate_errors.empty());
  EXPECT_EQ(refused.gate_errors.front().code, "SL501");
  EXPECT_EQ(refused.gate_errors.front().location, victim);

  // A candidate built AFTER the quarantine has seen the fabric since the
  // downgrade; it publishes (and resets health to fresh).
  MapSnapshot fresh = build_snapshot(t, options, SimTime::ms(200));
  EXPECT_TRUE(catalog.publish(std::move(fresh)).published());
  EXPECT_EQ(catalog.health()->state, MapCatalog::HealthState::kFresh);
}

TEST(MapCatalog, StaleEpochPublishIsRejected) {
  const Topology t = topo::torus(3, 3, 1);
  MapCatalog catalog;
  // First publish: based-on 0 means "no epoch existed when I started".
  ASSERT_TRUE(catalog.publish_if_current(make_snapshot(t, 1), 0).published());

  // A remap computed against epoch 0 raced and lost: refused.
  const auto stale = catalog.publish_if_current(make_snapshot(t, 2), 0);
  EXPECT_EQ(stale.status, MapCatalog::PublishStatus::kRejectedStale);
  EXPECT_EQ(catalog.epoch(), 1u);
  EXPECT_EQ(catalog.stats().rejected_stale, 1u);

  // Computed against the live epoch: accepted.
  const auto fresh = catalog.publish_if_current(make_snapshot(t, 3), 1);
  ASSERT_TRUE(fresh.published());
  EXPECT_EQ(fresh.epoch, 2u);
}

TEST(MapCatalog, HistoryIsBoundedAndAddressable) {
  const Topology t = topo::torus(3, 3, 1);
  MapCatalog catalog(/*history_limit=*/2);
  catalog.publish(make_snapshot(t, 1));
  catalog.publish(make_snapshot(t, 2));
  catalog.publish(make_snapshot(t, 3));

  EXPECT_EQ(catalog.at_epoch(1), nullptr);  // evicted
  ASSERT_NE(catalog.at_epoch(2), nullptr);
  EXPECT_EQ(catalog.at_epoch(2)->options.route_seed, 2u);
  ASSERT_NE(catalog.at_epoch(3), nullptr);
  EXPECT_EQ(catalog.history_epochs(), (std::vector<std::uint64_t>{2, 3}));

  // A reader that grabbed an epoch keeps it alive past eviction.
  const SnapshotPtr held = catalog.at_epoch(2);
  catalog.publish(make_snapshot(t, 4));
  EXPECT_EQ(catalog.at_epoch(2), nullptr);
  EXPECT_EQ(held->options.route_seed, 2u);
}

// ----------------------------------------------------------- query engine --

TEST(RouteQueryEngine, AnswersMatchTheRouterAndDeliver) {
  const Topology t = topo::torus(3, 3, 1);
  MapCatalog catalog;
  catalog.publish(make_snapshot(t));
  const RouteQueryEngine engine(catalog);

  simnet::Network net(t);
  const auto hosts = t.hosts();
  for (const NodeId src : hosts) {
    for (const NodeId dst : hosts) {
      if (src == dst) {
        continue;
      }
      const RouteAnswer answer = engine.route(t.name(src), t.name(dst));
      ASSERT_TRUE(answer.found);
      EXPECT_EQ(answer.epoch, 1u);
      // A route of k turns traverses k+1 wires (the source host link first).
      EXPECT_EQ(answer.hops, static_cast<int>(answer.turns.size()) + 1);
      const auto delivery = net.send(src, answer.turns);
      ASSERT_TRUE(delivery.delivered());
      EXPECT_EQ(delivery.destination, dst);
    }
  }
  EXPECT_EQ(engine.served(), hosts.size() * (hosts.size() - 1));
  EXPECT_EQ(engine.misses(), 0u);

  const FabricStats stats = engine.stats();
  EXPECT_EQ(stats.epoch, 1u);
  EXPECT_EQ(stats.hosts, 9u);
  EXPECT_EQ(stats.routes, 72u);
  EXPECT_TRUE(stats.deadlock_free);
}

TEST(RouteQueryEngine, MissesOnUnknownHostsAndEmptyCatalog) {
  MapCatalog catalog;
  const RouteQueryEngine engine(catalog);
  const RouteAnswer empty_answer = engine.route("a", "b");
  EXPECT_FALSE(empty_answer.found);
  EXPECT_EQ(empty_answer.epoch, 0u);
  EXPECT_EQ(engine.stats().hosts, 0u);

  const Topology t = topo::torus(3, 3, 1);
  catalog.publish(make_snapshot(t));
  EXPECT_FALSE(engine.route("no-such-host", t.name(t.hosts()[0])).found);
  EXPECT_FALSE(engine.reachable(t.name(t.hosts()[0]), "gone"));
  EXPECT_TRUE(
      engine.reachable(t.name(t.hosts()[0]), t.name(t.hosts()[1])));
  EXPECT_EQ(engine.misses(), 3u);
}

TEST(RouteQueryEngine, BatchFansOutOverThePool) {
  const Topology t = topo::torus(3, 3, 1);
  MapCatalog catalog;
  catalog.publish(make_snapshot(t));
  const RouteQueryEngine engine(catalog);

  const auto hosts = t.hosts();
  std::vector<RouteQuery> queries;
  for (int rep = 0; rep < 50; ++rep) {
    for (const NodeId src : hosts) {
      for (const NodeId dst : hosts) {
        if (src != dst) {
          queries.push_back(RouteQuery{t.name(src), t.name(dst)});
        }
      }
    }
  }
  queries.push_back(RouteQuery{"phantom", t.name(hosts[0])});

  common::ThreadPool pool(4);
  const auto answers = engine.run_batch(queries, pool, /*chunk_size=*/64);
  ASSERT_EQ(answers.size(), queries.size());
  for (std::size_t i = 0; i + 1 < answers.size(); ++i) {
    ASSERT_TRUE(answers[i].found) << "query " << i;
    EXPECT_EQ(answers[i].epoch, 1u);
  }
  EXPECT_FALSE(answers.back().found);
  EXPECT_EQ(engine.served(), queries.size());
  EXPECT_EQ(engine.misses(), 1u);
}

TEST(RouteQueryEngine, QuarantineWithholdsRoutesAndStaleAgeIsObservable) {
  const Topology t = topo::torus(3, 3, 1);
  MapCatalog catalog;
  catalog.publish(make_snapshot(t));  // created_at == 0
  const RouteQueryEngine engine(catalog);
  const std::string src = t.name(t.hosts()[0]);
  const std::string dst = t.name(t.hosts()[5]);

  // Fresh: answered, and stale_age is zero regardless of checked_at — a
  // snapshot that passed its last health check still describes the fabric.
  MapCatalog::HealthStatus fresh;
  fresh.checked_at = SimTime::ms(250);
  catalog.set_health(fresh);
  const RouteAnswer before = engine.route(src, dst);
  ASSERT_TRUE(before.found);
  EXPECT_EQ(before.status, QueryStatus::kOk);
  EXPECT_EQ(before.stale_age, SimTime{});

  // Quarantine every switch: any route crosses the dirty region, so the
  // query is refused as kDegraded (not kNotFound) and the reader can see
  // how far the fabric has moved past the snapshot it is being served.
  MapCatalog::HealthStatus degraded;
  degraded.state = MapCatalog::HealthState::kDegraded;
  degraded.checked_at = SimTime::ms(250);
  for (const NodeId s : t.switches()) {
    degraded.quarantined.push_back(t.name(s));
  }
  catalog.set_health(degraded);

  const RouteAnswer withheld = engine.route(src, dst);
  EXPECT_FALSE(withheld.found);
  EXPECT_EQ(withheld.status, QueryStatus::kDegraded);
  EXPECT_TRUE(withheld.turns.empty());
  EXPECT_EQ(withheld.stale_age, SimTime::ms(250));
  EXPECT_EQ(engine.degraded(), 1u);
  EXPECT_EQ(engine.misses(), 1u);

  // An unknown host under quarantine is still a plain miss, not degraded.
  EXPECT_FALSE(engine.route("phantom", dst).found);
  EXPECT_EQ(engine.degraded(), 1u);

  // Publishing a new epoch resets health: serving is trusted again. The
  // healing candidate must postdate the quarantine — a snapshot built
  // before it is exactly what SL501 refuses.
  SnapshotOptions healed_options;
  healed_options.route_seed = 2;
  healed_options.source = "test";
  catalog.publish(build_snapshot(t, healed_options, SimTime::ms(300)));
  const RouteAnswer healed = engine.route(src, dst);
  ASSERT_TRUE(healed.found);
  EXPECT_EQ(healed.status, QueryStatus::kOk);
  EXPECT_EQ(healed.stale_age, SimTime{});
}

// ------------------------------------------------------------ concurrency --

TEST(ServiceConcurrency, ReadersOnlyEverSeePublishedEpochs) {
  const Topology t = topo::torus(3, 3, 1);
  MapCatalog catalog;
  catalog.publish(make_snapshot(t, 1));
  const RouteQueryEngine engine(catalog);
  const std::size_t expected_routes = 9u * 8u;
  const std::string src = t.name(t.hosts()[0]);
  const std::string dst = t.name(t.hosts()[5]);

  constexpr std::uint64_t kEpochs = 40;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint64_t i = 2; i <= kEpochs; ++i) {
      // Each epoch is a full rebuild with its own seed — distinct immutable
      // snapshots swapped under the readers.
      ASSERT_TRUE(
          catalog.publish_if_current(make_snapshot(t, i), i - 1).published());
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::uint64_t last_epoch = 0;
      while (!done.load(std::memory_order_acquire)) {
        const SnapshotPtr snap = catalog.current();
        ASSERT_NE(snap, nullptr);
        // Torn state would show as a half-built snapshot: wrong route
        // count, unverified verdict, or an epoch going backwards.
        ASSERT_TRUE(snap->deadlock_free);
        ASSERT_EQ(snap->routes.routes.size(), expected_routes);
        ASSERT_GE(snap->epoch, last_epoch);
        ASSERT_LE(snap->epoch, kEpochs);
        last_epoch = snap->epoch;

        const RouteAnswer answer = engine.route(src, dst);
        ASSERT_TRUE(answer.found);
        ASSERT_GT(answer.epoch, 0u);
      }
    });
  }
  writer.join();
  for (std::thread& reader : readers) {
    reader.join();
  }
  EXPECT_EQ(catalog.epoch(), kEpochs);
  EXPECT_EQ(catalog.stats().published, kEpochs);
}

TEST(ServiceConcurrency, QueriesContinueWhileTheRefreshLoopSwapsEpochs) {
  const Topology t = topo::torus(3, 3, 1);
  simnet::FaultSchedule schedule;
  simnet::Network net(t);
  net.attach_faults(&schedule);

  MapCatalog catalog;
  RefreshConfig config;
  config.master_name = t.name(t.hosts().front());
  RefreshLoop loop(net, catalog, config);
  ASSERT_TRUE(loop.bootstrap().swapped());

  // Kill a redundant link a little into the future: the next ticks detect
  // broken routes, remap, and republish — while the readers below hammer
  // the catalog from other threads.
  schedule.link_down(switch_wire(t), loop.now() + SimTime::ms(1));

  const RouteQueryEngine engine(catalog);
  const auto hosts = t.hosts();
  std::vector<RouteQuery> queries;
  for (const NodeId src : hosts) {
    for (const NodeId dst : hosts) {
      if (src != dst) {
        queries.push_back(RouteQuery{t.name(src), t.name(dst)});
      }
    }
  }

  std::atomic<bool> done{false};
  std::thread refresher([&] {
    loop.run(6);  // the refresh loop is the catalog's only writer
    done.store(true, std::memory_order_release);
  });

  common::ThreadPool pool(4);
  std::uint64_t batches = 0;
  std::uint64_t swaps_observed = 0;
  std::uint64_t last_epoch = 0;
  do {
    const auto answers = engine.run_batch(queries, pool, /*chunk_size=*/8);
    ++batches;
    for (const RouteAnswer& answer : answers) {
      // Every host survives the redundant-link death, so no query is ever
      // a miss — but while a repair is in flight the loop quarantines the
      // dirty region, so an answer may be transiently withheld as
      // kDegraded. What must never happen: a torn read (kNotFound for a
      // host that exists) or an answer from an unpublished epoch.
      ASSERT_TRUE(answer.found ||
                  answer.status == QueryStatus::kDegraded);
      ASSERT_GT(answer.epoch, 0u);
    }
    const std::uint64_t epoch = catalog.epoch();
    if (epoch != last_epoch) {
      ++swaps_observed;
      last_epoch = epoch;
    }
  } while (!done.load(std::memory_order_acquire));
  refresher.join();

  EXPECT_GE(batches, 1u);
  EXPECT_GE(swaps_observed, 1u);
  EXPECT_GE(catalog.epoch(), 2u);  // bootstrap + at least one heal
  EXPECT_EQ(catalog.stats().rejected_unsafe, 0u);
}

TEST(ServiceConcurrency, HistoryEvictionRacesEpochReaders) {
  // A tight history window forces an eviction on nearly every publish while
  // readers hammer at_epoch()/history_epochs() from other threads. TSan's
  // job: the deque mutation and the reader loads must never race; a reader
  // either gets null (evicted) or a fully published snapshot whose epoch
  // matches what it asked for — and a held SnapshotPtr outlives eviction.
  const Topology t = topo::torus(3, 3, 1);
  MapCatalog catalog(/*history_limit=*/2);
  catalog.publish(make_snapshot(t, 1));
  const SnapshotPtr pinned = catalog.at_epoch(1);
  ASSERT_NE(pinned, nullptr);

  constexpr std::uint64_t kEpochs = 60;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (std::uint64_t i = 2; i <= kEpochs; ++i) {
      ASSERT_TRUE(
          catalog.publish_if_current(make_snapshot(t, i), i - 1).published());
    }
    done.store(true, std::memory_order_release);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&] {
      std::uint64_t hits = 0;
      do {  // at least one pass even if the writer wins the startup race
        const std::uint64_t current = catalog.epoch();
        // Chase the eviction edge: the freshly published epoch is always
        // resident, the one history_limit back is being pushed out.
        for (std::uint64_t e = current; e > 0 && e + 3 > current; --e) {
          const SnapshotPtr snap = catalog.at_epoch(e);
          if (snap != nullptr) {
            ASSERT_EQ(snap->epoch, e);
            ASSERT_EQ(snap->options.route_seed, e);
            ASSERT_TRUE(snap->deadlock_free);
            ++hits;
          }
        }
        const auto epochs = catalog.history_epochs();
        ASSERT_LE(epochs.size(), 2u);
        for (std::size_t i = 1; i < epochs.size(); ++i) {
          ASSERT_LT(epochs[i - 1], epochs[i]);
        }
      } while (!done.load(std::memory_order_acquire));
      ASSERT_GT(hits, 0u);
    });
  }
  writer.join();
  for (std::thread& reader : readers) {
    reader.join();
  }

  // Epoch 1 was evicted dozens of publishes ago; the pinned reference kept
  // the snapshot itself alive and intact.
  EXPECT_EQ(catalog.at_epoch(1), nullptr);
  EXPECT_EQ(pinned->epoch, 1u);
  EXPECT_EQ(pinned->options.route_seed, 1u);
  EXPECT_EQ(catalog.epoch(), kEpochs);
}

// ------------------------------------------------------------ refresh loop --

TEST(RefreshLoop, QuietTicksObserveWithoutRepublishing) {
  const Topology t = topo::torus(3, 3, 1);
  simnet::Network net(t);
  MapCatalog catalog;
  RefreshConfig config;
  config.master_name = t.name(t.hosts().front());
  RefreshLoop loop(net, catalog, config);

  const TickReport boot = loop.bootstrap();
  EXPECT_TRUE(boot.swapped());
  EXPECT_TRUE(boot.remapped);
  EXPECT_TRUE(boot.distribution_complete);
  EXPECT_EQ(boot.epoch_after, 1u);
  EXPECT_GT(boot.probes_used, 0u);

  for (const TickReport& report : loop.run(3)) {
    EXPECT_FALSE(report.swapped());
    EXPECT_FALSE(report.remapped);
    EXPECT_EQ(report.routes_checked, 72u);
    EXPECT_EQ(report.broken, 0u);
    // An observation-only tick never tried to publish — and must not look
    // like a successful one (kNotAttempted, not a stale kPublished; no
    // phantom "distribution complete").
    EXPECT_EQ(report.publish_status, TickPublish::kNotAttempted);
    EXPECT_FALSE(report.distribution_complete);
    EXPECT_EQ(report.remap, RemapKind::kNone);
    EXPECT_EQ(report.health, MapCatalog::HealthState::kFresh);
  }
  EXPECT_EQ(catalog.epoch(), 1u);
}

TEST(RefreshLoop, RejectsInvalidConfigAtConstruction) {
  const Topology t = topo::torus(3, 3, 1);
  simnet::Network net(t);
  MapCatalog catalog;

  RefreshConfig good;
  good.master_name = t.name(t.hosts().front());

  {
    RefreshConfig bad = good;
    bad.master_name.clear();
    EXPECT_THROW(RefreshLoop(net, catalog, bad), common::CheckFailure);
  }
  {
    RefreshConfig bad = good;
    bad.check_interval = SimTime{};
    EXPECT_THROW(RefreshLoop(net, catalog, bad), common::CheckFailure);
  }
  {
    RefreshConfig bad = good;
    bad.dirty_radius = -1;
    EXPECT_THROW(RefreshLoop(net, catalog, bad), common::CheckFailure);
  }
  {
    RefreshConfig bad = good;
    bad.budget_horizon = SimTime{};
    EXPECT_THROW(RefreshLoop(net, catalog, bad), common::CheckFailure);
  }
  // A master that is not in the fabric fails too — at construction, not on
  // the first tick.
  {
    RefreshConfig bad = good;
    bad.master_name = "no-such-host";
    EXPECT_THROW(RefreshLoop(net, catalog, bad), common::CheckFailure);
  }
  // The baseline really is valid: same config, no throw.
  EXPECT_NO_THROW(RefreshLoop(net, catalog, good));
}

TEST(RefreshLoop, LinkDeathTriggersRemapVerifySwap) {
  const Topology t = topo::torus(3, 3, 1);
  simnet::FaultSchedule schedule;
  simnet::Network net(t);
  net.attach_faults(&schedule);
  MapCatalog catalog;
  RefreshConfig config;
  config.master_name = t.name(t.hosts().front());
  RefreshLoop loop(net, catalog, config);
  loop.bootstrap();
  const SnapshotPtr before = catalog.current();

  const topo::WireId victim = switch_wire(t);
  schedule.link_down(victim, loop.now() + SimTime::ms(1));

  bool healed = false;
  for (int i = 0; i < 4 && !healed; ++i) {
    const TickReport report = loop.tick();
    if (report.swapped()) {
      EXPECT_GT(report.broken, 0u);
      EXPECT_TRUE(report.remapped);
      EXPECT_EQ(report.publish_status, TickPublish::kPublished);
      healed = true;
    }
  }
  ASSERT_TRUE(healed);

  const SnapshotPtr after = catalog.current();
  ASSERT_NE(after, nullptr);
  EXPECT_GT(after->epoch, before->epoch);
  EXPECT_TRUE(after->deadlock_free);
  // The healed map is the surviving fabric: same hosts, one wire fewer.
  EXPECT_EQ(after->map.num_hosts(), before->map.num_hosts());
  EXPECT_EQ(after->map.num_wires() + 1, before->map.num_wires());

  // Its routes actually work on the live (degraded) network.
  const auto health =
      routing::check_routes(net, after->routes, after->map, loop.now());
  EXPECT_TRUE(health.healthy());

  // The pre-fault epoch stays addressable for post-mortems.
  EXPECT_EQ(catalog.at_epoch(before->epoch), before);

  // Quiet again: no further republish.
  EXPECT_FALSE(loop.tick().swapped());
}

// ------------------------------------------------------------------ codec --
// (plus the property sweep at the bottom: random catalogs round-trip and
// every single-byte corruption is rejected)

TEST(SnapshotCodec, RoundTripPreservesTheSnapshot) {
  Topology t = topo::torus(3, 3, 1);
  t.disconnect(switch_wire(t));  // a tombstone exercises compaction
  MapSnapshot original = make_snapshot(t, 77);
  original.epoch = 12;

  const std::string bytes = encode_snapshot(original);
  const MapSnapshot decoded = decode_snapshot(bytes);
  EXPECT_EQ(decoded.epoch, 12u);
  EXPECT_EQ(decoded.created_at, original.created_at);
  EXPECT_EQ(decoded.options.route_seed, 77u);
  EXPECT_EQ(decoded.options.source, "test");
  EXPECT_TRUE(decoded.map.structurally_equal(original.map));
  EXPECT_TRUE(decoded.deadlock_free);
  ASSERT_EQ(decoded.routes.routes.size(), original.routes.routes.size());
  for (const auto& [pair, route] : original.routes.routes) {
    const auto it = decoded.routes.routes.find(pair);
    ASSERT_NE(it, decoded.routes.routes.end());
    EXPECT_EQ(it->second.turns, route.turns);
  }
}

TEST(SnapshotCodec, DetectsCorruptionTruncationAndBadMagic) {
  const Topology t = topo::torus(3, 3, 1);
  const std::string bytes = encode_snapshot(make_snapshot(t));

  std::string corrupt = bytes;
  corrupt[corrupt.size() / 2] =
      static_cast<char>(corrupt[corrupt.size() / 2] ^ 0x20);
  EXPECT_THROW(decode_snapshot(corrupt), std::runtime_error);

  EXPECT_THROW(decode_snapshot(bytes.substr(0, bytes.size() - 5)),
               std::runtime_error);
  EXPECT_THROW(decode_snapshot(bytes.substr(0, 10)), std::runtime_error);

  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_THROW(decode_snapshot(wrong_magic), std::runtime_error);

  // Flipping a stored route byte (past the map text) must be caught by the
  // checksum even though the turn value could still be plausible.
  std::string flipped = bytes;
  flipped[flipped.size() - 1] =
      static_cast<char>(flipped[flipped.size() - 1] ^ 0x01);
  EXPECT_THROW(decode_snapshot(flipped), std::runtime_error);
}

TEST(SnapshotCodec, FileRoundTrip) {
  const Topology t = topo::torus(3, 3, 1);
  const MapSnapshot original = make_snapshot(t, 5);
  const std::string path = ::testing::TempDir() + "sanmap_snapshot_test.bin";
  write_snapshot_file(path, original);
  const MapSnapshot loaded = read_snapshot_file(path);
  EXPECT_TRUE(loaded.map.structurally_equal(original.map));
  EXPECT_EQ(loaded.options.route_seed, 5u);
  EXPECT_THROW(read_snapshot_file(path + ".missing"), std::runtime_error);
  std::remove(path.c_str());
}

// ------------------------------------------------------ codec properties --

TEST(SnapshotCodecProperty, RandomCatalogsRoundTrip) {
  common::Rng rng(0xc0dec);
  for (int i = 0; i < 8; ++i) {
    const int switches = 2 + static_cast<int>(rng.below(5));
    const int hosts = 2 + static_cast<int>(rng.below(6));
    const int extra = static_cast<int>(rng.below(3));
    const Topology t = topo::random_irregular(switches, hosts, extra, rng);
    MapSnapshot original = make_snapshot(t, 1 + rng.below(1000));
    original.epoch = 1 + rng.below(100);

    const MapSnapshot decoded = decode_snapshot(encode_snapshot(original));
    EXPECT_EQ(decoded.epoch, original.epoch);
    EXPECT_EQ(decoded.options.route_seed, original.options.route_seed);
    EXPECT_TRUE(decoded.map.structurally_equal(original.map));
    ASSERT_EQ(decoded.routes.routes.size(), original.routes.routes.size());
    for (const auto& [pair, route] : original.routes.routes) {
      EXPECT_EQ(decoded.routes.routes.at(pair).turns, route.turns);
    }
    // Decoding re-verifies rather than trusting stored claims.
    EXPECT_TRUE(decoded.deadlock_free);
    EXPECT_TRUE(decoded.compliant);
  }
}

TEST(SnapshotCodecProperty, EverySingleByteCorruptionIsRejected) {
  // FNV-1a's byte steps are bijections, so any one-byte change to the
  // payload changes the checksum; header corruption trips the magic,
  // version, or size checks instead. A small snapshot keeps the
  // every-position sweep fast.
  const Topology t = topo::star(2, 1);
  const std::string bytes = encode_snapshot(make_snapshot(t));
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string corrupt = bytes;
    corrupt[i] = static_cast<char>(corrupt[i] ^ 0x01);
    EXPECT_THROW(decode_snapshot(corrupt), std::runtime_error)
        << "byte " << i << " of " << bytes.size();
  }
}

}  // namespace
}  // namespace sanmap::service
