#include "mapper/robust_mapper.hpp"

#include <algorithm>
#include <optional>
#include <utility>

#include "common/check.hpp"
#include "common/log.hpp"
#include "mapper/berkeley_mapper.hpp"

namespace sanmap::mapper {

namespace {

/// Total probes the whole session (passes + sweeps + final check) may
/// spend. Exhausting it ends the session wherever it stands.
constexpr std::uint64_t kProbeBudget = 50000;
/// Full mapping passes before giving up.
constexpr int kMaxPasses = 5;
/// Stability sweep rounds per pass before forcing a new pass.
constexpr int kMaxSweepRounds = 8;
/// Ceiling of the engine retry level the session escalates to.
constexpr int kMaxRetries = 5;
/// Pause before the second mapping pass, doubling for each further one
/// (transient congestion and routing storms pass; probing into them wastes
/// budget).
constexpr common::SimTime kInitialBackoff = common::SimTime::ms(2);
/// Extra confirmation probes after a surprising negative.
constexpr int kConfirmProbes = 2;
/// Fraction of ports re-checked by the final sampled consistency sweep.
constexpr double kVerifyFraction = 0.25;

/// Session-stable identity of one switch output port: the probe prefix
/// that reaches the switch plus the turn that selects the port. Stable as
/// long as the route to the switch is — after an upstream excision the key
/// changes, which conservatively restarts that port's history.
std::string port_key(const simnet::Route& prefix, simnet::Turn turn) {
  return simnet::to_string(prefix) + ":" + std::to_string(turn);
}

void accumulate(probe::ProbeCounters& into,
                const probe::ProbeCounters& from) {
  into.host_probes += from.host_probes;
  into.host_hits += from.host_hits;
  into.switch_probes += from.switch_probes;
  into.switch_hits += from.switch_hits;
  into.wild_probes += from.wild_probes;
  into.wild_hits += from.wild_hits;
}

}  // namespace

RobustMapper::RobustMapper(probe::ProbeEngine& engine, RobustConfig config)
    : engine_(&engine),
      config_(config),
      mapper_name_(engine.network().topology().name(engine.mapper_host())) {
  SANMAP_CHECK(config_.quarantine_threshold >= 2);
  SANMAP_CHECK(config_.initial_retries >= 0 &&
               config_.initial_retries <= kMaxRetries);
}

bool RobustMapper::budget_exhausted() const {
  return probes_accumulated_ + engine_->counters().total() >=
         kProbeBudget;
}

bool RobustMapper::register_transition(const std::string& key,
                                       RobustResult& result) {
  if (std::find(quarantined_.begin(), quarantined_.end(), key) !=
      quarantined_.end()) {
    return true;
  }
  auto it = std::find_if(suspicion_.begin(), suspicion_.end(),
                         [&](const auto& e) { return e.first == key; });
  if (it == suspicion_.end()) {
    suspicion_.emplace_back(key, 0);
    it = std::prev(suspicion_.end());
  }
  if (++it->second < config_.quarantine_threshold) {
    return false;
  }
  SANMAP_LOG(kInfo, "robust",
             "quarantining flapping port " << key << " after " << it->second
                                           << " confirmed transitions");
  quarantined_.push_back(key);
  result.quarantined_ports = quarantined_;
  return true;
}

int RobustMapper::free_state(const std::string& key) const {
  for (const auto& [k, state] : free_states_) {
    if (k == key) {
      return state;
    }
  }
  return -1;
}

void RobustMapper::set_free_state(const std::string& key, int state) {
  for (auto& [k, s] : free_states_) {
    if (k == key) {
      s = state;
      return;
    }
  }
  free_states_.emplace_back(key, state);
}

void RobustMapper::excise_wire(topo::Topology& work, topo::WireId w,
                               RobustResult& result) {
  const auto mapper = work.find_host(mapper_name_);
  SANMAP_CHECK(mapper.has_value());
  // The wire's switch-end ports are about to become recorded-free with a
  // confirmed-dead history; baseline them so a later answer there counts
  // as a state transition (flap detection) instead of a first sighting.
  {
    const std::vector<MapReach> pre = map_reach(work, *mapper, nullptr);
    const topo::Wire& wire = work.wire(w);
    for (const topo::PortRef& end : {wire.a, wire.b}) {
      if (work.is_switch(end.node) && pre[end.node].reachable) {
        set_free_state(
            port_key(pre[end.node].prefix, end.port - pre[end.node].entry),
            0);
      }
    }
  }
  work.disconnect(w);
  const std::vector<MapReach> reach = map_reach(work, *mapper, nullptr);
  for (const topo::NodeId n : work.nodes()) {
    if (reach[n].reachable) {
      continue;
    }
    SANMAP_LOG(kInfo, "robust",
               "cut off from the mapper: " << work.name(n));
    result.cut_off.push_back(work.name(n));
    work.remove_node(n);
  }
}

RobustMapper::SweepOutcome RobustMapper::sweep_round(topo::Topology& work,
                                                     RobustResult& result) {
  round_mixed_bursts_ = 0;
  const auto mapper = work.find_host(mapper_name_);
  SANMAP_CHECK(mapper.has_value());

  // Port keys confirmed alive (or confirmed empty) this round; survives
  // mid-round restarts so only ports whose route changed are re-probed.
  std::vector<std::string> alive_checked;
  const auto checked = [&](const std::string& k) {
    return std::find(alive_checked.begin(), alive_checked.end(), k) !=
           alive_checked.end();
  };
  const auto quarantined = [&](const std::string& k) {
    return std::find(quarantined_.begin(), quarantined_.end(), k) !=
           quarantined_.end();
  };
  bool excised_any = false;

  // Each iteration either finishes the sweep (returns an outcome) or
  // excises a wire and restarts with recomputed reach, so downstream ports
  // are re-verified through surviving routes instead of being falsely
  // condemned behind the dead wire.
  for (;;) {
    const auto outcome = [&]() -> std::optional<SweepOutcome> {
      round_confidence_.clear();
      for (const topo::WireId w : work.wires()) {
        round_confidence_.push_back(EdgeConfidence{w, 1.0});
      }
      const auto lower_confidence = [&](topo::WireId w, double c) {
        for (EdgeConfidence& e : round_confidence_) {
          if (e.wire == w) {
            e.confidence = c;
            return;
          }
        }
      };

      // The mapper's own wire is every route's first hop, yet a round over
      // a map with no other hosts and no occupied far ports consists only
      // of expects-nothing checks — a dead first switch answers nothing
      // everywhere and would pass such a sweep unnoticed. Verify the first
      // hop positively, once per round.
      const std::string root_key = "@mapper-wire";
      if (const auto root_peer = work.peer(*mapper, 0);
          root_peer && !checked(root_key)) {
        if (budget_exhausted()) {
          return SweepOutcome::kBudget;
        }
        const bool expect_switch = work.is_switch(root_peer->node);
        const auto answers = [&] {
          const probe::Response r = engine_->probe(simnet::Route{});
          if (expect_switch) {
            return r.kind == probe::ResponseKind::kSwitch;
          }
          return r.kind == probe::ResponseKind::kHost &&
                 r.host_name == work.name(root_peer->node);
        };
        int hits = answers() ? 1 : 0;
        int attempts = 1;
        if (hits == 0) {
          for (int i = 0; i < kConfirmProbes && !budget_exhausted(); ++i) {
            ++attempts;
            if (answers()) {
              ++hits;
              break;
            }
          }
        }
        if (hits == 0) {
          register_transition(root_key, result);
          excise_wire(work, *work.wire_at(*mapper, 0), result);
          excised_any = true;
          return std::nullopt;
        }
        if (attempts > 1) {
          ++round_mixed_bursts_;
          lower_confidence(*work.wire_at(*mapper, 0),
                           static_cast<double>(hits) / attempts);
        }
        alive_checked.push_back(root_key);
      }

      std::vector<topo::NodeId> order;
      const std::vector<MapReach> reach = map_reach(work, *mapper, &order);
      for (const topo::NodeId s : order) {
        const MapReach& rs = reach[s];
        for (topo::Port p = 0; p < work.port_count(s); ++p) {
          const simnet::Turn turn = p - rs.entry;
          const std::string key = port_key(rs.prefix, turn);
          const auto far = work.peer(s, p);
          if (quarantined(key)) {
            if (far) {
              // A mapping pass caught the flapper in an up phase; evict it.
              excise_wire(work, *work.wire_at(s, p), result);
              excised_any = true;
              return std::nullopt;
            }
            continue;
          }
          if (far && p == rs.entry) {
            continue;  // the wire we arrived on: every probe to s uses it
          }
          if (far && far->node == s && far->port < p) {
            continue;  // self-loop cable: verified once from its lower port
          }
          if (checked(key)) {
            continue;
          }
          if (budget_exhausted()) {
            return SweepOutcome::kBudget;
          }

          if (!far) {
            // Recorded free. A switch bouncing a probe here is consistent
            // with the map: Theorem 1 omits the separated set F, and a
            // dangling F-switch answers loopbacks while being unmappable.
            // Track the port's confirmed state instead; only a *change*
            // counts as a transition. A host answering is a real error —
            // hosts always belong to the core.
            const simnet::Route probe = simnet::extended(rs.prefix, turn);
            auto r = engine_->probe(probe);
            if (r.kind == probe::ResponseKind::kHost) {
              return SweepOutcome::kNeedsRemap;
            }
            const int prev = free_state(key);
            if (r.kind == probe::ResponseKind::kNothing && prev != -1) {
              // The port has a confirmed history; don't let traffic-eaten
              // probes flip it. For a known-occupied port silence is the
              // surprise to confirm; for a confirmed-empty (excised) port
              // a missed bounce would cost its second-chance remap.
              for (int i = 0; i < kConfirmProbes && !budget_exhausted(); ++i) {
                r = engine_->probe(probe);
                if (r.kind != probe::ResponseKind::kNothing) {
                  break;
                }
              }
              if (r.kind == probe::ResponseKind::kHost) {
                return SweepOutcome::kNeedsRemap;
              }
            }
            if (r.kind == probe::ResponseKind::kSwitch) {
              set_free_state(key, 1);
              if (prev == 1) {
                alive_checked.push_back(key);
                continue;  // the known dangling F-switch answered again
              }
              if (prev == 0) {
                // Confirmed empty earlier, answering now. Either a flapper
                // (quarantine at the threshold) or a wire the confirm
                // burst falsely condemned — a fresh pass is its second
                // chance.
                if (register_transition(key, result)) {
                  continue;
                }
                return SweepOutcome::kNeedsRemap;
              }
              // First sighting. A dangling F-switch and a core subtree the
              // pass lost to probe collisions bounce identically; one
              // re-exploration tells them apart. The state persists, so a
              // true F-dangle is accepted as baseline next time around.
              return SweepOutcome::kNeedsRemap;
            }
            set_free_state(key, 0);
            if (prev == 1) {
              register_transition(key, result);  // confirmed gone dark
            }
            alive_checked.push_back(key);
            continue;
          }

          if (work.is_host(far->node)) {
            const std::string& expected = work.name(far->node);
            const simnet::Route probe = simnet::extended(rs.prefix, turn);
            const auto first = engine_->host_probe(probe);
            if (first && *first == expected) {
              alive_checked.push_back(key);
              continue;
            }
            if (first) {
              return SweepOutcome::kNeedsRemap;  // answered as someone else
            }
            // Surprising negative: confirm before condemning the wire.
            int hits = 0;
            int attempts = 1;
            for (int i = 0; i < kConfirmProbes && !budget_exhausted(); ++i) {
              ++attempts;
              const auto again = engine_->host_probe(probe);
              if (again && *again == expected) {
                ++hits;
              }
            }
            if (hits == 0) {
              register_transition(key, result);
              excise_wire(work, *work.wire_at(s, p), result);
              excised_any = true;
              return std::nullopt;
            }
            ++round_mixed_bursts_;
            lower_confidence(*work.wire_at(s, p),
                             static_cast<double>(hits) / attempts);
            alive_checked.push_back(key);
            continue;
          }

          // Switch-to-switch wire: one echo probe out across the wire and
          // home along the far switch's own prefix (turns are port
          // differences, so map-space routes are physically valid).
          const MapReach& rt = reach[far->node];
          SANMAP_CHECK(rt.reachable);
          simnet::Route echo = simnet::extended(rs.prefix, turn);
          echo.push_back(rt.entry - far->port);
          const simnet::Route back = simnet::reversed(rt.prefix);
          echo.insert(echo.end(), back.begin(), back.end());
          if (engine_->echo_probe(echo)) {
            alive_checked.push_back(key);
            continue;
          }
          int hits = 0;
          int attempts = 1;
          for (int i = 0; i < kConfirmProbes && !budget_exhausted(); ++i) {
            ++attempts;
            if (engine_->echo_probe(echo)) {
              ++hits;
            }
          }
          if (hits == 0) {
            register_transition(key, result);
            excise_wire(work, *work.wire_at(s, p), result);
            excised_any = true;
            return std::nullopt;
          }
          ++round_mixed_bursts_;
          lower_confidence(*work.wire_at(s, p),
                           static_cast<double>(hits) / attempts);
          alive_checked.push_back(key);
        }
      }
      return excised_any ? SweepOutcome::kExcised : SweepOutcome::kClean;
    }();
    if (outcome) {
      return *outcome;
    }
  }
}

RobustResult RobustMapper::run() {
  RobustResult result;
  quarantined_.clear();
  suspicion_.clear();
  free_states_.clear();
  round_confidence_.clear();
  probes_accumulated_ = 0;
  now_ = engine_->now();
  engine_->set_retries(config_.initial_retries);
  common::SimTime backoff = kInitialBackoff;

  const auto end_phase = [&] {
    probes_accumulated_ += engine_->counters().total();
    accumulate(result.probes, engine_->counters());
    now_ = engine_->now();
  };
  const auto escalate_retries = [&] {
    engine_->set_retries(
        std::min(kMaxRetries, engine_->retries() + 1));
  };

  bool converged = false;
  topo::Topology work;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    if (pass > 0) {
      // Back off before re-probing: transient congestion passes on its
      // own, and a higher retry level conditions the next pass against
      // whatever loss rate defeated this one.
      now_ += backoff;
      backoff = backoff * 2;
      escalate_retries();
    }
    if (probes_accumulated_ >= kProbeBudget) {
      break;
    }
    ++result.passes;
    engine_->set_clock_base(now_);
    MapResult mapped = BerkeleyMapper(*engine_, config_.base).run();
    end_phase();

    // Vanished-host recheck: a host the previous candidate knew that the
    // fresh pass lost, yet still answers its old route, proves the pass
    // incomplete (a live reachable host always belongs to the core). A
    // pass that lost its opening probes to a traffic burst returns a
    // near-empty map whose sweep would pass trivially; reject it and keep
    // the previous candidate instead.
    if (pass > 0 && work.num_hosts() > 0) {
      const auto prev_mapper = work.find_host(mapper_name_);
      SANMAP_CHECK(prev_mapper.has_value());
      const std::vector<MapReach> prev_reach =
          map_reach(work, *prev_mapper, nullptr);
      engine_->set_clock_base(now_);
      engine_->reset();
      bool incomplete = false;
      for (const topo::NodeId h : work.hosts()) {
        const std::string& name = work.name(h);
        if (h == *prev_mapper || mapped.map.find_host(name) ||
            !prev_reach[h].reachable) {
          continue;
        }
        for (int i = 0; i <= kConfirmProbes && !budget_exhausted(); ++i) {
          const auto answer = engine_->host_probe(prev_reach[h].prefix);
          if (answer && *answer == name) {
            incomplete = true;
            break;
          }
        }
        if (incomplete) {
          SANMAP_LOG(kInfo, "robust",
                     "pass " << result.passes << " lost live host " << name
                             << "; rejecting its map");
          break;
        }
      }
      end_phase();
      if (incomplete) {
        continue;  // another pass, with backoff and escalated retries
      }
    }

    work = std::move(mapped.map);
    // A fresh pass re-derives everything from the live network; cut-off
    // findings from the previous pass's sweeps are stale.
    result.cut_off.clear();

    bool remap = false;
    for (int round = 0; round < kMaxSweepRounds; ++round) {
      engine_->set_clock_base(now_);
      engine_->reset();
      ++result.sweep_rounds;
      const common::SimTime round_began = now_;
      const SweepOutcome outcome = sweep_round(work, result);
      end_phase();
      if (round_mixed_bursts_ >= 3) {
        escalate_retries();  // ambient loss: condition subsequent probes
      }
      if (outcome == SweepOutcome::kClean) {
        converged = true;
        result.stable_since = round_began;
        break;
      }
      if (outcome == SweepOutcome::kNeedsRemap) {
        remap = true;
        break;
      }
      if (outcome == SweepOutcome::kBudget) {
        break;
      }
      // kExcised: sweep again until the pruned map survives a full round.
    }
    if (!remap) {
      break;  // converged, out of budget, or out of sweep rounds
    }
  }

  result.map = std::move(work);
  result.converged = converged;
  result.quarantined_ports = quarantined_;
  result.confidence = round_confidence_;
  result.partial = !converged || !result.cut_off.empty() ||
                   !result.quarantined_ports.empty();

  // Final sampled consistency sweep: an independent spot check of the
  // converged map, reusing the incremental verifier's per-port probes.
  if (converged && probes_accumulated_ < kProbeBudget) {
    engine_->set_clock_base(now_);
    IncrementalConfig check_config;
    check_config.base = config_.base;
    check_config.repair = false;
    check_config.verify_fraction = kVerifyFraction;
    IncrementalMapper checker(*engine_, result.map, check_config);
    const IncrementalResult check = checker.run();
    result.consistency_checks = check.verification_probes;
    // The incremental verifier flags any answer on a recorded-free port as
    // a new device; a dangling F-switch the sweeps already baselined (or a
    // quarantined flapper caught in an up phase) is not a contradiction.
    const auto map_mapper = result.map.find_host(mapper_name_);
    SANMAP_CHECK(map_mapper.has_value());
    const std::vector<MapReach> reach =
        map_reach(result.map, *map_mapper, nullptr);
    std::uint64_t failures = 0;
    for (const Discrepancy& f : check.findings) {
      if (f.kind == DiscrepancyKind::kNewDevice &&
          result.map.is_switch(f.node) && reach[f.node].reachable) {
        const std::string key =
            port_key(reach[f.node].prefix, f.port - reach[f.node].entry);
        if (free_state(key) == 1 ||
            std::find(quarantined_.begin(), quarantined_.end(), key) !=
                quarantined_.end()) {
          continue;
        }
      }
      ++failures;
    }
    result.consistency_failures = failures;
    end_phase();
  }

  result.probes_used = probes_accumulated_;
  result.elapsed = now_;
  return result;
}

}  // namespace sanmap::mapper
