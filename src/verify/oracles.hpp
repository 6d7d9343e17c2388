// The differential oracle stack: every check the fuzzer runs on a case.
//
// Each oracle is an independent statement about one mapping session over
// the case's network, with the ground truth computed from the case itself
// (the fuzzer knows N; the mapper must rediscover it):
//
//  * berkeley-iso   — BerkeleyMapper's map is isomorphic to core(C) where
//                     C is the mapper host's connected component (Theorem 1,
//                     restricted to the reachable part of a possibly
//                     disconnected fuzz case). Any exception out of the
//                     mapper is a violation of its own (berkeley-crash).
//  * myricom-diff   — on a quiescent cut-through case, MyricomMapper's map
//                     is isomorphic to ALL of C (§4.1 maps host-free
//                     regions too), and the two mappers agree differentially:
//                     core(Myricom's map) ≅ Berkeley's map.
//  * analysis-clean — UP*/DOWN* routes over the Berkeley map, routed once,
//                     are compliant (deadlock-updown); the static analyzer
//                     (src/analysis) over the map and those routes reports
//                     no ERROR diagnostic (analysis-clean: SL201 is a
//                     dependency cycle, SL202 a certificate that failed its
//                     independent re-checker); and the Kahn-based deadlock
//                     certificate agrees with the three-color DFS detector
//                     routing::analyze_routes (analysis-deadlock-diff).
//  * conservation   — the ConservationChecker hook, attached to the network
//                     for the whole mapping session, observed no accounting
//                     violation.
//  * walk-equiv     — the hook makes that session walk every probe hop by
//                     hop; an unhooked rerun, whose probes resume from the
//                     previous probe's walk, must match it exactly:
//                     transcript, probe counters, elapsed() and the
//                     network's counters. Where the §3.1.4 bound applies,
//                     the rerun caps its depth as `sanmap map` does — the
//                     one-BFS floor, raised to the exact bound only if the
//                     exploration reaches past it — so the match also pins
//                     the lazy cap to the eager one.
//  * pipeline-equiv — pipelined probing is a pure re-timing: BerkeleyMapper
//                     with an outstanding-probe window (pipeline_window = 8)
//                     on the same quiescent case produces a map isomorphic
//                     to the serial run's, identical probe counters, and an
//                     elapsed() no larger than serial; and a window of 1
//                     reproduces the serial elapsed() exactly, to the
//                     nanosecond.
//  * robust-iso     — for cases with a (flap-free) fault timeline: a
//                     converged RobustMapper session yields the map of the
//                     surviving component's core at convergence time.
//                     Non-convergence is a skip, not a violation; so is a
//                     fault landing inside [stable_since, elapsed] — the
//                     session's blind window, where no mapper could have
//                     observed the change.
//  * federated-iso   — sharded mapping loses nothing: a FederatedMapper run
//                     (three auto-partitioned regions, at most one per
//                     host, anchored at the mapper host, concurrent
//                     per-region sessions, boundary resolution, recomputed
//                     routes) produces a merged map Theorem-1
//                     isomorphic to the monolithic truth core(C) — and the
//                     merged model is *certified* (analyzer-clean, both
//                     certificates re-checked). On a flap-free faulted case
//                     the oracle runs on the settled surviving fabric, so
//                     fault schedules are covered too; flap timelines are a
//                     skip (no quiescent instant to shard at).
//  * incremental-equiv — for the same flap-free faulted cases, run after
//                     the timeline settles (clock based past the last
//                     event): an IncrementalMapper sweep restricted to the
//                     dirty region (the switches the fault events touch,
//                     expanded by dirty_radius) and spliced into the
//                     pre-fault map must be Theorem-1 isomorphic to the
//                     from-scratch map of the surviving fabric at the same
//                     instant — and, when the dirty region is a strict
//                     subset of the fabric's switches, strictly cheaper in
//                     probes than that from-scratch remap.
//
// Oracles that do not apply to a case (Myricom under circuit switching,
// analysis on a switchless map, iso under flapping links) are recorded as
// skipped so a fuzzing report can prove coverage, not just absence of
// failures.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "verify/scenario_case.hpp"

namespace sanmap::verify {

struct Violation {
  /// Stable oracle key: "berkeley-iso", "berkeley-crash", "myricom-diff",
  /// "myricom-crash", "deadlock-updown", "analysis-clean",
  /// "analysis-deadlock-diff", "analysis-crash",
  /// "conservation", "walk-equiv", "pipeline-equiv", "pipeline-crash",
  /// "robust-iso", "robust-crash", "incremental-equiv", "incremental-crash",
  /// "federated-iso", "federated-certify", "federated-crash".
  std::string oracle;
  std::string detail;
};

struct OracleReport {
  std::vector<Violation> violations;
  /// "oracle: reason" for every check that did not apply to this case.
  std::vector<std::string> skipped;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// True when some violation's oracle key equals `oracle`.
  [[nodiscard]] bool violates(const std::string& oracle) const;
  /// One line per violation/skip, for logs and artifacts.
  [[nodiscard]] std::string summary() const;
};

struct OracleOptions {
  /// Run incremental-equiv (off: skipped as "incremental-equiv: disabled").
  bool incremental = true;

  /// incremental-equiv: BFS expansion around the event-touched switches
  /// when deriving the dirty region (the refresh loop expands by one hop).
  int dirty_radius = 1;

  /// Plumbed into MapperConfig::sabotage_skip_merges: breaks the mapper on
  /// purpose so the fuzzer's catch-and-minimize path can be verified.
  bool sabotage_skip_merges = false;

  /// Seed for the UP*/DOWN* parallel-cable tie-break.
  std::uint64_t route_seed = 1;

  /// MapperConfig::max_explorations for oracle-run mapping sessions. Far
  /// above anything a healthy session needs on fuzz-sized cases, but it
  /// bounds a sabotaged (merge-free) mapper to seconds instead of hours.
  std::size_t max_explorations = 2048;
};

/// Runs every applicable oracle on the case.
OracleReport run_oracles(const ScenarioCase& c,
                         const OracleOptions& options = {});

}  // namespace sanmap::verify
