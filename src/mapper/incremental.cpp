#include "mapper/incremental.hpp"

#include <deque>
#include <optional>
#include <sstream>

#include "common/check.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "mapper/explorer.hpp"
#include "mapper/model_graph.hpp"
#include "topology/algorithms.hpp"

namespace sanmap::mapper {

namespace {

/// Seed of a sampled sweep's per-port draw (deterministic across runs).
constexpr std::uint64_t kSampleSeed = 0x5eed;

}  // namespace

const char* to_string(DiscrepancyKind kind) {
  switch (kind) {
    case DiscrepancyKind::kNewDevice:
      return "new-device";
    case DiscrepancyKind::kHostMissing:
      return "host-missing";
    case DiscrepancyKind::kWireBroken:
      return "wire-broken";
  }
  return "?";
}

std::vector<MapReach> map_reach(const topo::Topology& map,
                                topo::NodeId map_mapper,
                                std::vector<topo::NodeId>* switch_order) {
  SANMAP_CHECK_MSG(map.node_alive(map_mapper) && map.is_host(map_mapper),
                   "map_reach needs a live host of the map as root");
  std::vector<MapReach> reach(map.node_capacity());
  reach[map_mapper].reachable = true;
  std::deque<topo::NodeId> queue{map_mapper};
  while (!queue.empty()) {
    const topo::NodeId n = queue.front();
    queue.pop_front();
    if (map.is_host(n) && n != map_mapper) {
      continue;  // hosts do not forward
    }
    for (topo::Port p = 0; p < map.port_count(n); ++p) {
      const auto far = map.peer(n, p);
      if (!far || reach[far->node].reachable) {
        continue;
      }
      MapReach& r = reach[far->node];
      r.reachable = true;
      r.entry = far->port;
      if (n == map_mapper) {
        r.prefix = {};
      } else {
        r.prefix = simnet::extended(reach[n].prefix, p - reach[n].entry);
      }
      if (map.is_switch(far->node)) {
        if (switch_order) {
          switch_order->push_back(far->node);
        }
        queue.push_back(far->node);
      }
    }
  }
  return reach;
}

IncrementalMapper::IncrementalMapper(probe::ProbeEngine& engine,
                                     topo::Topology previous_map,
                                     IncrementalConfig config)
    : engine_(&engine),
      previous_(std::move(previous_map)),
      config_(config) {
  const auto& live = engine.network().topology();
  const std::string& mapper_name = live.name(engine.mapper_host());
  SANMAP_CHECK_MSG(previous_.find_host(mapper_name).has_value(),
                   "previous map does not contain the mapper host "
                       << mapper_name);
  SANMAP_CHECK_MSG(
      config_.verify_fraction > 0.0 && config_.verify_fraction <= 1.0,
      "IncrementalConfig::verify_fraction must be in (0, 1]; got "
          << config_.verify_fraction);
  SANMAP_CHECK_MSG(config_.verify_fraction >= 1.0 || !config_.repair,
                   "sampled verification (verify_fraction < 1) cannot "
                   "repair: the repair phase needs the full confirmed set");
  for (const topo::NodeId s : config_.region) {
    SANMAP_CHECK_MSG(previous_.node_alive(s) && previous_.is_switch(s),
                     "IncrementalConfig::region entry " << s
                         << " is not a live switch of the previous map");
  }
}

IncrementalResult IncrementalMapper::run() {
  engine_->reset();
  IncrementalResult result;

  const std::string mapper_name =
      engine_->network().topology().name(engine_->mapper_host());
  const topo::NodeId map_mapper = *previous_.find_host(mapper_name);

  // ---- derive prefixes and entry ports by BFS over the previous map -----
  std::vector<topo::NodeId> switch_order;
  const std::vector<MapReach> reach =
      map_reach(previous_, map_mapper, &switch_order);

  // Sampling draw for verify_fraction < 1 (full sweeps never consume it,
  // so full-sweep behaviour is bit-identical to before the knob existed).
  common::Rng sample(kSampleSeed);
  const auto sampled = [&] {
    return config_.verify_fraction >= 1.0 ||
           sample.chance(config_.verify_fraction);
  };

  // Region restriction: empty region sweeps everything.
  std::vector<bool> in_region;
  if (!config_.region.empty()) {
    in_region.assign(previous_.node_capacity(), false);
    for (const topo::NodeId s : config_.region) {
      in_region[s] = true;
    }
  }
  const auto swept = [&](topo::NodeId s) {
    return in_region.empty() || in_region[s];
  };

  // ---- verification sweep ------------------------------------------------
  // Switches incident to a discrepancy; their confirmed slot sets.
  std::vector<bool> suspicious(previous_.node_capacity(), false);
  std::vector<std::vector<bool>> confirmed(previous_.node_capacity());
  // Switches some probe positively answered through. A dead switch answers
  // nothing everywhere, and silence is exactly what the free-port checks
  // expect — so a leaf switch whose only occupied port is its entry wire
  // would pass the sweep unnoticed (the same blind spot RobustMapper's
  // @mapper-wire check closes for the first hop). Track positive evidence
  // and buy a direct bounce for any swept switch that ends up without it.
  std::vector<bool> answered(previous_.node_capacity(), false);
  const auto flag = [&](DiscrepancyKind kind, topo::NodeId s, topo::Port p,
                        const std::string& what) {
    suspicious[s] = true;
    SANMAP_LOG(kInfo, "incremental", what);
    result.findings.push_back(Discrepancy{kind, s, p, what});
  };

  for (const topo::NodeId s : switch_order) {
    if (!swept(s)) {
      // Trusted wholesale: every recorded port counts as confirmed without
      // spending a probe. (A neighbor's failed boundary echo can still mark
      // this switch suspicious, which overrides the trust in repair.)
      confirmed[s].assign(
          static_cast<std::size_t>(previous_.port_count(s)), true);
      continue;
    }
    ++result.swept_switches;
    if (confirmed[s].empty()) {  // may already hold far-side confirmations
      confirmed[s].assign(
          static_cast<std::size_t>(previous_.port_count(s)), false);
    }
    const MapReach& rs = reach[s];
    for (topo::Port p = 0; p < previous_.port_count(s); ++p) {
      const simnet::Turn turn = p - rs.entry;
      const auto far = previous_.peer(s, p);
      if (!far) {
        // Recorded free: confirm that nothing new appeared here.
        if (!sampled()) {
          continue;
        }
        const auto r = engine_->probe(simnet::extended(rs.prefix, turn));
        if (r.kind != probe::ResponseKind::kNothing) {
          answered[s] = true;  // whatever answered, the route through s works
          std::ostringstream oss;
          oss << "new device on a recorded-free port of switch "
              << previous_.name(s);
          flag(DiscrepancyKind::kNewDevice, s, p, oss.str());
        }
        continue;
      }
      if (p == rs.entry) {
        continue;  // the wire we arrived on: verified from the other side
                   // (or it is the mapper's own wire, exercised by every
                   // probe we send)
      }
      if (far->node == s && far->port < p) {
        continue;  // self-loop cable: verified once from its lower port
      }
      if (previous_.is_host(far->node)) {
        if (!sampled()) {
          continue;
        }
        const auto name =
            engine_->host_probe(simnet::extended(rs.prefix, turn));
        if (!name || *name != previous_.name(far->node)) {
          std::ostringstream oss;
          oss << "host " << previous_.name(far->node)
              << " no longer answers on switch " << previous_.name(s);
          flag(DiscrepancyKind::kHostMissing, s, p, oss.str());
        } else {
          confirmed[s][static_cast<std::size_t>(p)] = true;
          answered[s] = true;
        }
        continue;
      }
      if (!sampled()) {
        continue;
      }
      // Switch-to-switch wire: one echo probe out across the wire and back
      // along the far switch's own prefix.
      const MapReach& rt = reach[far->node];
      SANMAP_CHECK(rt.reachable);
      simnet::Route echo = simnet::extended(rs.prefix, turn);
      echo.push_back(rt.entry - far->port);
      const simnet::Route back = simnet::reversed(rt.prefix);
      echo.insert(echo.end(), back.begin(), back.end());
      if (engine_->echo_probe(echo)) {
        confirmed[s][static_cast<std::size_t>(p)] = true;
        answered[s] = true;
        answered[far->node] = true;  // the echo crossed and returned via far
        if (confirmed[far->node].empty()) {
          confirmed[far->node].assign(
              static_cast<std::size_t>(previous_.port_count(far->node)),
              false);
        }
        confirmed[far->node][static_cast<std::size_t>(far->port)] = true;
      } else {
        std::ostringstream oss;
        oss << "wire " << previous_.name(s) << ":" << p << " - "
            << previous_.name(far->node) << ":" << far->port
            << " failed its echo";
        flag(DiscrepancyKind::kWireBroken, s, p, oss.str());
        flag(DiscrepancyKind::kWireBroken, far->node, far->port,
             oss.str() + " (far side)");
      }
    }
    // Entry wires count as confirmed once a probe through them answered.
    // When the whole sweep of this switch was expects-nothing checks, buy
    // the positive evidence with one direct probe the switch itself must
    // bounce (for the first switch this is RobustMapper's @mapper-wire
    // check; for deeper switches it also exercises every trusted hop of
    // the prefix, so an undersized dirty region still cannot splice a
    // dead path back in).
    if (!answered[s] && sampled()) {
      answered[s] =
          engine_->probe(rs.prefix).kind == probe::ResponseKind::kSwitch;
      if (!answered[s]) {
        std::ostringstream oss;
        oss << "switch " << previous_.name(s)
            << " answers nothing on its entry wire";
        flag(DiscrepancyKind::kWireBroken, s, rs.entry, oss.str());
      }
    }
    if (answered[s]) {
      confirmed[s][static_cast<std::size_t>(rs.entry)] = true;
    }
  }

  result.verification_probes = engine_->counters().total();

  if (result.findings.empty()) {
    result.unchanged = true;
    result.map = previous_;
    result.probes = engine_->counters();
    result.elapsed = engine_->elapsed();
    return result;
  }
  if (!config_.repair) {
    result.map = previous_;
    result.probes = engine_->counters();
    result.elapsed = engine_->elapsed();
    return result;
  }

  // ---- local repair -------------------------------------------------------
  // Load the confirmed part of the map into a model graph. Slot indices are
  // re-based to each switch's BFS entry port so they line up with the
  // prefixes the explorer will extend.
  ModelGraph model;
  Explorer explorer(model, *engine_, config_.base);
  std::vector<VertexId> vertex_of(previous_.node_capacity(), kInvalidVertex);
  for (const topo::NodeId n : previous_.nodes()) {
    if (previous_.is_host(n)) {
      if (n != map_mapper) {
        // A host is only as good as its (single) confirmed wire; a host
        // whose wire failed verification may be gone — if it still exists
        // somewhere, re-exploration will rediscover it fresh.
        const auto far = previous_.peer(n, 0);
        const bool wire_confirmed =
            far && !confirmed[far->node].empty() &&
            confirmed[far->node][static_cast<std::size_t>(far->port)];
        if (!wire_confirmed) {
          continue;
        }
      }
      vertex_of[n] =
          model.add_host_vertex(reach[n].prefix, previous_.name(n));
      continue;
    }
    if (!reach[n].reachable) {
      continue;  // unreachable stale fragments are dropped outright
    }
    vertex_of[n] = model.add_switch_vertex(reach[n].prefix);
  }
  for (const topo::WireId w : previous_.wires()) {
    const topo::Wire& wire = previous_.wire(w);
    const auto ok_end = [&](const topo::PortRef& end) {
      if (vertex_of[end.node] == kInvalidVertex) {
        return false;
      }
      if (previous_.is_host(end.node)) {
        return true;
      }
      return !confirmed[end.node].empty() &&
             confirmed[end.node][static_cast<std::size_t>(end.port)];
    };
    // Keep a wire only when both ends are live and confirmed (host wires
    // are confirmed from the switch side; host ends carry no port state).
    if (!ok_end(wire.a) || !ok_end(wire.b)) {
      continue;
    }
    const auto base_of = [&](const topo::PortRef& end) {
      return previous_.is_host(end.node) ? 0 : reach[end.node].entry;
    };
    model.add_edge(vertex_of[wire.a.node], wire.a.port - base_of(wire.a),
                   vertex_of[wire.b.node], wire.b.port - base_of(wire.b));
  }
  model.stabilize();
  // Mark intact switches explored; queue the suspicious ones for
  // re-exploration (their confirmed slots survive and are skipped).
  for (const topo::NodeId s : switch_order) {
    if (vertex_of[s] == kInvalidVertex) {
      continue;
    }
    if (suspicious[s]) {
      explorer.push(vertex_of[s]);
    } else {
      model.mark_explored(vertex_of[s]);
    }
  }

  MapResult repair;
  explorer.run(repair);
  model.stabilize();
  model.prune();
  result.map = model.extract();
  // Unlike a from-scratch map (grown outward from the mapper, connected by
  // construction), a spliced map can hold trusted fragments the repair cut
  // the mapper off from — a dead in-region path strands everything behind
  // it. Keep only the mapper's component, then shed separated clusters the
  // degree-based prune cannot reach (see BerkeleyMapper::run).
  if (const auto m = result.map.find_host(mapper_name)) {
    result.map = topo::component_of(result.map, *m);
  }
  result.map = topo::core(result.map);
  result.probes = engine_->counters();
  result.elapsed = engine_->elapsed();
  return result;
}

}  // namespace sanmap::mapper
