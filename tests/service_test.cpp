// The map service layer: versioned catalog, concurrent query engine,
// refresh loop, and the binary snapshot codec.
//
//  * MapSnapshot — building bundles map and routes, certify() writes the
//    deadlock verdict;
//  * MapCatalog — monotonic epochs, unsafe-snapshot refusal, the published
//    snapshot carries the gate's verdict, stale-epoch compare-and-publish,
//    bounded history;
//  * RouteQueryEngine — answers match the router, batches fan out over the
//    thread pool, misses are counted;
//  * concurrency — readers race a publisher (and a live RefreshLoop) and
//    must only ever observe fully published epochs. These tests are the
//    TSan CI job's primary target;
//  * RefreshLoop — quiet ticks observe, a link death triggers remap +
//    verify + redistribute + epoch swap, the backoff damper spaces
//    consecutive remaps, revived devices are re-discovered, the separated
//    set F does not trigger remaps, and the bootstrap maps the whole fabric;
//  * codec — round trip, checksum/truncation/magic failures, changed table
//    entries behind a valid checksum (decoded as the table they make, and
//    refused unless it certifies), maps the router refuses, old versions,
//    file I/O.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <optional>
#include <span>
#include <thread>

#include "analysis/certificates.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "routing/deadlock.hpp"
#include "routing/route_health.hpp"
#include "service/map_catalog.hpp"
#include "service/query_engine.hpp"
#include "service/refresh_loop.hpp"
#include "service/snapshot_codec.hpp"
#include "simnet/fault_schedule.hpp"
#include "simnet/network.hpp"
#include "topology/algorithms.hpp"
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
  MapSnapshot snap = make_snapshot(t);
  EXPECT_EQ(snap.epoch, 0u);  // unassigned until published
  EXPECT_EQ(snap.routes.routes.size(), 9u * 8u);
  EXPECT_GT(snap.mean_hops, 0.0);
  EXPECT_GE(snap.max_hops, 2);
  // Building proves nothing; certify() writes the verdict.
  EXPECT_FALSE(snap.deadlock_free);
  EXPECT_FALSE(snap.compliant);
  EXPECT_EQ(snap.dependencies, 0u);
  EXPECT_TRUE(certify(snap).clean());
  EXPECT_TRUE(snap.deadlock_free);
  EXPECT_TRUE(snap.compliant);
  EXPECT_GT(snap.channels, 0u);
  EXPECT_GT(snap.dependencies, 0u);
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
  MapSnapshot snap = make_snapshot(t);
  EXPECT_TRUE(certify(snap).clean());
  EXPECT_TRUE(snap.deadlock_free);
  EXPECT_TRUE(snap.compliant);
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

  // A table with a down-to-up turn, as a faulty router would emit it.
  MapSnapshot unsafe = make_snapshot(t);
  ASSERT_FALSE(
      analysis::inject_down_up_turn(unsafe.map, unsafe.routes).empty());
  const auto outcome = catalog.publish(std::move(unsafe));
  EXPECT_EQ(outcome.status, MapCatalog::PublishStatus::kRejectedUnsafe);
  EXPECT_EQ(outcome.epoch, 1u);          // the surviving epoch
  EXPECT_EQ(outcome.snapshot, nullptr);  // nothing to distribute
  EXPECT_EQ(catalog.epoch(), 1u);        // current unchanged
  EXPECT_EQ(catalog.stats().rejected_unsafe, 1u);
}

TEST(MapCatalog, PublishedSnapshotCarriesTheGateVerdict) {
  const Topology t = topo::torus(3, 3, 1);
  MapCatalog catalog;
  // Verdict fields set by hand neither admit nor refuse: the gate
  // overwrites them with its own.
  MapSnapshot candidate = make_snapshot(t);
  candidate.deadlock_free = false;
  candidate.dependencies = 12345;
  const auto outcome = catalog.publish(std::move(candidate));
  ASSERT_TRUE(outcome.published());
  const SnapshotPtr current = catalog.current();
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(outcome.snapshot, current);

  const analysis::DeadlockCertificate certificate =
      analysis::build_deadlock_certificate(current->map, current->routes);
  EXPECT_TRUE(current->deadlock_free);
  EXPECT_EQ(current->deadlock_free, certificate.deadlock_free);
  EXPECT_EQ(current->channels, certificate.channels);
  EXPECT_EQ(current->dependencies, certificate.dependencies);
  EXPECT_TRUE(current->compliant);
  EXPECT_EQ(current->compliant,
            routing::summarize(current->routes).compliant);
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

  // Every candidate the analyzer refuses was analysed too.
  MapSnapshot tampered = make_snapshot(t, 4);
  ASSERT_FALSE(
      analysis::inject_down_up_turn(tampered.map, tampered.routes).empty());
  EXPECT_FALSE(catalog.publish(std::move(tampered)).published());
  MapSnapshot flagged = make_snapshot(t, 5);
  ASSERT_FALSE(
      analysis::inject_down_up_turn(flagged.map, flagged.routes).empty());
  EXPECT_FALSE(catalog.publish(std::move(flagged)).published());
  stats = catalog.gate_stats();
  EXPECT_EQ(stats.incremental_escalated, 5u);
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
  const auto hosts = current->map.hosts();
  for (const NodeId n : current->routes.route(hosts[0], hosts[1]).nodes) {
    if (victim.empty() && current->map.is_switch(n)) {
      victim = current->map.name(n);
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
    EXPECT_EQ(report.verify_probes, 198u);
    EXPECT_EQ(report.findings, 0u);
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
  TickReport last;
  for (int i = 0; i < 4 && !healed; ++i) {
    const TickReport report = loop.tick();
    last = report;
    if (report.swapped()) {
      EXPECT_GT(report.findings, 0u);
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

  EXPECT_TRUE(topo::isomorphic(
      after->map, topo::core(schedule.surviving(t, loop.now()))));

  // Its tables reached every switch, and its routes actually work on the
  // live (degraded) network: the independent end-to-end replay.
  EXPECT_TRUE(last.distribution_complete);
  const auto health =
      routing::check_routes(net, after->routes, after->map, loop.now());
  EXPECT_TRUE(health.healthy());
  EXPECT_EQ(health.delivery_ratio(), 1.0);

  // The pre-fault epoch stays addressable for post-mortems.
  EXPECT_EQ(catalog.at_epoch(before->epoch), before);

  // Quiet again: no further republish.
  EXPECT_FALSE(loop.tick().swapped());
}

TEST(RefreshLoop, BackoffDampsConsecutiveRemapsAndCapsThePause) {
  // One host goes down, then up, then down again, each flip landing just
  // after the previous remap: every tick has findings. The first remap
  // arms a 100 ms pause; each further consecutive remap doubles it, up to
  // the 2 s cap. Ticks inside the pause keep the epoch and serve the old
  // map as stale-serving.
  const Topology t = topo::ring(3, 1);
  const NodeId master = t.hosts().front();
  const NodeId victim = t.hosts().back();
  simnet::FaultSchedule schedule;
  simnet::Network net(t);
  net.attach_faults(&schedule);
  MapCatalog catalog;
  RefreshConfig config;
  config.master_name = t.name(master);
  config.check_interval = SimTime::ms(5);
  RefreshLoop loop(net, catalog, config);
  ASSERT_TRUE(loop.bootstrap().swapped());

  bool victim_up = true;
  const auto flip_victim = [&] {
    const SimTime at = loop.now() + SimTime::ms(1);
    if (victim_up) {
      schedule.node_down(victim, at);
    } else {
      schedule.node_up(victim, at);
    }
    victim_up = !victim_up;
  };
  flip_victim();

  // The pause each consecutive remap arms: 100 ms doubling, capped at 2 s.
  const std::vector<SimTime> pauses = {
      SimTime::ms(100),  SimTime::ms(200),  SimTime::ms(400),
      SimTime::ms(800),  SimTime::ms(1600), SimTime::seconds(2),
      SimTime::seconds(2)};
  std::size_t remaps = 0;
  SimTime remap_end{};
  // Every tick between two remaps sweeps the same map against the same
  // fabric, so each takes the same step: the interval plus one sweep.
  SimTime step{};
  SimTime last_damped{};
  int guard = 0;
  while (remaps <= pauses.size() && ++guard < 2000) {
    const TickReport report = loop.tick();
    ASSERT_GT(report.findings, 0u) << "tick " << guard;
    if (report.backoff_active) {
      EXPECT_FALSE(report.remapped);
      EXPECT_FALSE(report.swapped());
      EXPECT_EQ(report.publish_status, TickPublish::kNotAttempted);
      EXPECT_EQ(report.health, MapCatalog::HealthState::kStaleServing);
      ASSERT_GT(remaps, 0u);
      EXPECT_LT(report.at, remap_end + pauses[remaps - 1]);
      if (step == SimTime{}) {
        step = report.at - remap_end;
      }
      last_damped = report.at;
      continue;
    }
    ASSERT_TRUE(report.remapped) << "tick " << guard;
    EXPECT_TRUE(report.swapped());
    if (remaps > 0) {
      // The pause held through the last damped tick, and had ended by the
      // time this tick's sweep finished, one step later.
      ASSERT_GT(step, SimTime{}) << "remap " << remaps;
      EXPECT_GE(last_damped + step, remap_end + pauses[remaps - 1])
          << "remap " << remaps;
    }
    ++remaps;
    remap_end = report.at;
    step = SimTime{};
    flip_victim();
  }
  EXPECT_EQ(remaps, pauses.size() + 1);
}

TEST(RefreshLoop, RevivedSwitchAndHostAreRediscovered) {
  // A switch and a host go down and come back. A revived device breaks no
  // route of the degraded map; only the sweep's free-port probes see it
  // answer again. Once the fabric settles, the served map must be the
  // whole fabric again.
  const Topology t = topo::torus(3, 3, 1);
  const NodeId master = t.hosts().front();
  const NodeId master_switch = t.peer(master, 0)->node;
  NodeId victim_switch = topo::kInvalidNode;
  for (const NodeId s : t.switches()) {
    bool adjacent = s == master_switch;
    for (const topo::PortRef& ref : t.neighbors(s)) {
      adjacent = adjacent || ref.node == master_switch;
    }
    if (!adjacent) {
      victim_switch = s;
      break;
    }
  }
  ASSERT_NE(victim_switch, topo::kInvalidNode);
  NodeId victim_host = topo::kInvalidNode;
  for (const NodeId h : t.hosts()) {
    const NodeId s = t.peer(h, 0)->node;
    if (h != master && s != victim_switch && s != master_switch) {
      victim_host = h;
      break;
    }
  }
  ASSERT_NE(victim_host, topo::kInvalidNode);

  simnet::FaultSchedule schedule;
  simnet::Network net(t);
  net.attach_faults(&schedule);
  MapCatalog catalog;
  RefreshConfig config;
  config.master_name = t.name(master);
  RefreshLoop loop(net, catalog, config);
  ASSERT_TRUE(loop.bootstrap().swapped());

  const SimTime down_at = loop.now() + SimTime::ms(1);
  const SimTime up_at = down_at + SimTime::seconds(2);
  schedule.node_down(victim_switch, down_at);
  schedule.node_down(victim_host, down_at);
  schedule.node_up(victim_switch, up_at);
  schedule.node_up(victim_host, up_at);

  // Tick through the outage and one settle second past the revival.
  std::size_t fewest_hosts = t.num_hosts();
  bool rediscovered = false;
  while (loop.now() < up_at + SimTime::seconds(1)) {
    const TickReport report = loop.tick();
    const std::size_t hosts = catalog.current()->map.num_hosts();
    fewest_hosts = std::min(fewest_hosts, hosts);
    rediscovered = rediscovered || (report.at > up_at && report.findings > 0 &&
                                    report.swapped());
  }
  // The outage was served: both victims left the map, and came back.
  EXPECT_EQ(fewest_hosts + 2, t.num_hosts());
  EXPECT_TRUE(rediscovered);

  const SnapshotPtr served = catalog.current();
  EXPECT_TRUE(topo::isomorphic(
      served->map, topo::core(schedule.surviving(t, loop.now()))));
  EXPECT_EQ(served->map.num_hosts(), t.num_hosts());
  EXPECT_EQ(loop.tick().findings, 0u);
  EXPECT_EQ(catalog.health()->state, MapCatalog::HealthState::kFresh);
}

TEST(RefreshLoop, SeparatedSwitchesDoNotRemapEveryTick) {
  // Two chained host-less switches hang off a ring switch's free port.
  // Theorem 1 leaves them (the separated set F) out of every map, yet they
  // bounce the sweep's probe on that recorded-free port on every tick. The
  // remap re-derives the served map — the incremental repair, or with that
  // rung off the full session — so each tick is fresh: no remap, no
  // publish, no backoff, and the remap's probes count as the check's.
  Topology t = topo::ring(4, 1);
  const NodeId f0 = t.add_switch("f0");
  const NodeId f1 = t.add_switch("f1");
  t.connect_any(t.switches().front(), f0);
  t.connect_any(f0, f1);
  for (const bool incremental : {true, false}) {
    SCOPED_TRACE(incremental ? "incremental rung" : "full remap only");
    simnet::Network net(t);
    MapCatalog catalog;
    RefreshConfig config;
    config.master_name = t.name(t.hosts().front());
    config.check_interval = SimTime::ms(500);
    config.incremental = incremental;
    RefreshLoop loop(net, catalog, config);
    ASSERT_TRUE(loop.bootstrap().swapped());

    for (const TickReport& report : loop.run(6)) {
      EXPECT_GT(report.findings, 0u);
      EXPECT_FALSE(report.remapped);
      EXPECT_FALSE(report.swapped());
      EXPECT_FALSE(report.backoff_active);
      EXPECT_EQ(report.remap, RemapKind::kNone);
      EXPECT_EQ(report.probes_used, 0u);
      EXPECT_GT(report.verify_probes, 0u);
      EXPECT_EQ(report.publish_status, TickPublish::kNotAttempted);
      EXPECT_EQ(report.health, MapCatalog::HealthState::kFresh);
    }
    EXPECT_EQ(catalog.epoch(), 1u);
    EXPECT_TRUE(topo::isomorphic(catalog.current()->map, topo::core(t)));
  }
}

TEST(RefreshLoop, BootstrapMapsTheWholeFabric) {
  // The session maps at the fabric's exact bound, so the bootstrap map is
  // the whole fabric (MapperConfig's default depth of 16 reaches only 236
  // of these 240 switches) and the next sweep finds nothing new.
  topo::MegaFatTreeOptions options;
  options.leaf_switches = 128;
  const Topology t = topo::mega_fat_tree(options);
  simnet::Network net(t);
  MapCatalog catalog;
  RefreshConfig config;
  config.master_name = t.name(t.hosts().front());
  RefreshLoop loop(net, catalog, config);

  ASSERT_TRUE(loop.bootstrap().swapped());
  EXPECT_TRUE(topo::isomorphic(catalog.current()->map, topo::core(t)));
  const TickReport report = loop.tick();
  EXPECT_EQ(report.findings, 0u);
  EXPECT_FALSE(report.swapped());
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
  original.routes.routes.for_each_route(
      [&](NodeId src, NodeId dst, const routing::HostRoute& route) {
        EXPECT_EQ(decoded.routes.route(src, dst).turns, route.turns);
      });
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

  // Flipping a stored table entry (past the map text) must be caught by the
  // checksum even though the port could still be plausible.
  std::string flipped = bytes;
  flipped[flipped.size() - 1] =
      static_cast<char>(flipped[flipped.size() - 1] ^ 0x01);
  EXPECT_THROW(decode_snapshot(flipped), std::runtime_error);
}

/// FNV-1a 64, as the codec seals its payload.
std::uint64_t fnv1a(const std::string& bytes, std::size_t from) {
  std::uint64_t hash = 14695981039346656037ULL;
  for (std::size_t i = from; i < bytes.size(); ++i) {
    hash ^= static_cast<std::uint8_t>(bytes[i]);
    hash *= 1099511628211ULL;
  }
  return hash;
}

/// Writes `v` little-endian over bytes [at, at + width).
void put_le(std::string& bytes, std::size_t at, std::uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    bytes[at + static_cast<std::size_t>(i)] =
        static_cast<char>((v >> (8 * i)) & 0xffu);
  }
}

/// Rewrites the header's payload size and checksum to match the payload,
/// so a test's edit reaches the checks behind the checksum.
void reseal(std::string& bytes) {
  constexpr std::size_t kHeader = 8 + 4 + 8 + 8;
  put_le(bytes, 12, bytes.size() - kHeader, 8);
  put_le(bytes, 20, fnv1a(bytes, kHeader), 8);
}

/// The decode error `bytes` raises, or "" when it decodes.
std::string decode_error(const std::string& bytes) {
  try {
    decode_snapshot(bytes);
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(SnapshotCodec, StoresTheTableEntriesAndDecodesOnlySafeChanges) {
  const Topology t = topo::torus(3, 3, 1);
  const MapSnapshot snapshot = make_snapshot(t);
  const std::string bytes = encode_snapshot(snapshot);
  // The payload ends with the entry count and the table's raw entries.
  const std::span<const std::uint8_t> entries =
      snapshot.routes.routes.entries();
  ASSERT_EQ(entries.size(), 9u * 2u * 9u);
  const std::size_t start = bytes.size() - entries.size();
  EXPECT_TRUE(std::equal(entries.begin(), entries.end(),
                         reinterpret_cast<const std::uint8_t*>(bytes.data()) +
                             start));

  // A changed entry behind a valid checksum decodes as the table it makes:
  // refused with a runtime_error, or a table that routes every pair and
  // certifies clean. Any other exception fails the test.
  std::vector<std::uint8_t> values = {0xff, 0x08, 0xfe};
  for (std::uint8_t port = 0; port < topo::kSwitchPorts; ++port) {
    values.push_back(port);
  }
  const auto decodes_safely = [&](std::size_t i, std::uint8_t value) {
    std::string changed = bytes;
    changed[start + i] = static_cast<char>(value);
    reseal(changed);
    std::optional<MapSnapshot> decoded;
    try {
      decoded.emplace(decode_snapshot(changed));
    } catch (const std::runtime_error&) {
      return false;
    }
    EXPECT_EQ(decoded->routes.routes.entries()[i], value) << "entry " << i;
    EXPECT_EQ(decoded->routes.routes.size(), 9u * 8u) << "entry " << i;
    EXPECT_TRUE(decoded->deadlock_free && decoded->compliant)
        << "entry " << i;
    EXPECT_TRUE(certify(*decoded).clean()) << "entry " << i;
    return true;
  };
  std::size_t safe = 0;
  std::size_t refused = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    for (const std::uint8_t value : values) {
      ++(decodes_safely(i, value) ? safe : refused);
    }
  }
  EXPECT_GE(safe, entries.size());  // at least every entry left as it was
  EXPECT_GT(refused, 0u);

  // Single-bit flips of the set entries: some make another safe table.
  std::size_t set = 0;
  std::size_t safe_flips = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (entries[i] != 0xff) {
      ++set;
      if (decodes_safely(i, static_cast<std::uint8_t>(entries[i] ^ 0x01))) {
        ++safe_flips;
      }
    }
  }
  EXPECT_EQ(set, 95u);
  EXPECT_EQ(safe_flips, 41u);
}

TEST(SnapshotCodec, RefusesATableWithAnInjectedTurnNamingSl101) {
  const Topology t = topo::ring(4, 2);
  MapSnapshot snapshot = make_snapshot(t);
  ASSERT_FALSE(
      analysis::inject_down_up_turn(snapshot.map, snapshot.routes).empty());
  const std::string error = decode_error(encode_snapshot(snapshot));
  EXPECT_EQ(error.rfind("snapshot: the stored table fails SL101: ", 0), 0u)
      << error;
}

/// The decode error of a sealed 3x3-torus snapshot after `edit` swapped
/// its map or options, or "" when it decodes. A CheckFailure escapes and
/// fails the calling test: decode promises std::runtime_error.
template <typename Edit>
std::string decode_error_with(Edit&& edit) {
  MapSnapshot snapshot = make_snapshot(topo::torus(3, 3, 1));
  edit(snapshot);
  return decode_error(encode_snapshot(snapshot));
}

TEST(SnapshotCodec, RefusesADisconnectedMap) {
  EXPECT_EQ(decode_error_with([](MapSnapshot& s) {
              const NodeId island = s.map.add_switch("island");
              s.map.connect(s.map.add_host("castaway"), 0, island, 0);
            }),
            "snapshot: map is not connected");
}

TEST(SnapshotCodec, RefusesAMapWithoutASwitchOrAHost) {
  EXPECT_EQ(decode_error_with([](MapSnapshot& s) {
              Topology hostless;
              hostless.add_switch("lonely");
              s.map = hostless;
            }),
            "snapshot: map needs a switch and a host");
  EXPECT_EQ(decode_error_with([](MapSnapshot& s) {
              Topology switchless;
              switchless.add_host("solo");
              s.map = switchless;
            }),
            "snapshot: map needs a switch and a host");
}

TEST(SnapshotCodec, RefusesARootNameThatNamesNoSwitch) {
  EXPECT_EQ(
      decode_error_with([](MapSnapshot& s) { s.options.root_name = "nope"; }),
      "snapshot: root nope names no switch of the map");
  const Topology t = topo::torus(3, 3, 1);
  const std::string host = t.name(t.hosts().front());
  EXPECT_EQ(
      decode_error_with([&](MapSnapshot& s) { s.options.root_name = host; }),
      "snapshot: root " + host + " names no switch of the map");
}

TEST(SnapshotCodec, RefusesAnEntryCountOtherThanTheMaps) {
  // One host more than the stored table covers: 10 x 2 x 9 entries due.
  EXPECT_EQ(decode_error_with([](MapSnapshot& s) {
              const NodeId sw = s.map.switches().front();
              s.map.connect(s.map.add_host("extra"), 0, sw,
                            *s.map.free_port(sw));
            }),
            "snapshot: stored entry count 162 is not the map's 180");
}

TEST(SnapshotCodec, RefusesOldVersionsAndMisshapenEntryRuns) {
  const Topology t = topo::torus(3, 3, 1);
  const MapSnapshot snapshot = make_snapshot(t);
  const std::string bytes = encode_snapshot(snapshot);
  const std::size_t entries = snapshot.routes.routes.entries().size();
  const std::size_t count_at = bytes.size() - entries - 8;

  std::string v2 = bytes;
  put_le(v2, 8, 2, 4);
  EXPECT_EQ(decode_error(v2), "snapshot: unsupported version 2");

  // One entry fewer, and a count that says so.
  std::string short_table = bytes.substr(0, bytes.size() - 1);
  put_le(short_table, count_at, entries - 1, 8);
  reseal(short_table);
  EXPECT_EQ(decode_error(short_table),
            "snapshot: stored entry count 161 is not the map's 162");

  // One entry fewer than the count promises.
  std::string truncated = bytes.substr(0, bytes.size() - 1);
  reseal(truncated);
  EXPECT_EQ(decode_error(truncated), "snapshot: truncated payload");
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
    original.routes.routes.for_each_route(
        [&](NodeId src, NodeId dst, const routing::HostRoute& route) {
          EXPECT_EQ(decoded.routes.route(src, dst).turns, route.turns);
        });
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
