// Configuration and result types shared by the mapping algorithms.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/check.hpp"
#include "common/sim_time.hpp"
#include "probe/probe_engine.hpp"
#include "topology/topology.hpp"

namespace sanmap::mapper {

struct MapperConfig {
  /// Probe-string length bound (§3.1.4's SearchDepth). The paper uses
  /// Q + D + 1; benches compute it from the ground-truth topology via
  /// topo::search_depth(). Must be >= 1. With exact_search_depth set it is
  /// only a lower bound of the cap, typically topo::search_depth_floor().
  int search_depth = 16;

  /// The exact cap, computed only when needed (empty: search_depth is
  /// exact). The first vertex about to be explored whose probe string is
  /// longer than search_depth calls it once per run, and its result, which
  /// must be >= search_depth, becomes the cap. Every vertex explored before
  /// then is within the lower bound, so within the exact cap too: each
  /// explore/skip decision, and so every probe, equals an eager run's at
  /// the exact cap. RandomizedMapper calls it up front, because its wild
  /// probes use the depth as a length.
  std::function<int()> exact_search_depth;

  /// §3.3's port-order heuristic: adaptive turn order plus skipping turns
  /// that cannot land on a legal port for any consistent entry port.
  bool port_order_heuristic = true;

  /// Skip probing a turn whose slot already holds an edge inherited from a
  /// merged replicate — the answer is already known.
  bool skip_known_ports = true;

  /// Record the Figure 8 growth series (one point per switch exploration).
  bool record_trace = false;

  /// Runaway guard: hard cap on switch explorations (0 = unbounded). A
  /// healthy session explores each physical switch once, so any network the
  /// simulator can hold stays far below a cap in the thousands; a broken
  /// merge cascade (see sabotage_skip_merges) instead explores every walk
  /// to a replicate and would otherwise run for hours. Hitting the cap
  /// leaves the model unstabilized or incomplete, which extract() and the
  /// oracles report — the guard converts a hang into a diagnosable failure.
  std::size_t max_explorations = 0;

  /// Pipelined probing (probe::ProbePipeline): how many logical probes the
  /// exploration keeps in flight. 1 (the default) is the paper's serial
  /// engine, probe for probe and nanosecond for nanosecond; >= 2 issues a
  /// vertex's turn probes speculatively into a bounded window, so a batch
  /// costs the max-style makespan of its members instead of their sum.
  /// Probe counts, responses and the constructed map are bit-identical at
  /// every window — only elapsed() changes.
  int pipeline_window = 1;

  /// Fault injection for the verification subsystem (src/verify), never for
  /// production use: disable the §3.3 replicate-merge cascade entirely, so
  /// any topology in which a switch is reachable over two distinct paths
  /// yields duplicate model vertices and unresolved slot conflicts. The
  /// differential fuzzer must catch this (and its minimizer must shrink the
  /// catch to a hand-checkable case) — it is how we verify the verifier.
  bool sabotage_skip_merges = false;
};

/// config.exact_search_depth() when set (checked against the lower bound
/// search_depth), else config.search_depth.
inline int resolved_search_depth(const MapperConfig& config) {
  if (!config.exact_search_depth) {
    return config.search_depth;
  }
  const int exact = config.exact_search_depth();
  SANMAP_CHECK_MSG(exact >= config.search_depth,
                   "exact search depth " << exact << " is below its floor "
                                         << config.search_depth);
  return exact;
}

/// The probe-string cap one exploration applies: config.search_depth,
/// raised to resolved_search_depth(config) the first time a longer string
/// is about to be explored. `config` must outlive the cap.
class DepthCap {
 public:
  explicit DepthCap(const MapperConfig& config)
      : config_(&config), cap_(config.search_depth) {}

  /// True when a probe string of `length` turns lies beyond the cap.
  bool exceeds(std::size_t length) {
    if (static_cast<int>(length) > cap_ && !resolved_) {
      cap_ = resolved_search_depth(*config_);
      resolved_ = true;
    }
    return static_cast<int>(length) > cap_;
  }

 private:
  const MapperConfig* config_;
  int cap_;
  bool resolved_ = false;
};

/// One Figure 8 sample, taken after each switch exploration.
struct TracePoint {
  std::size_t exploration = 0;
  std::size_t model_vertices = 0;
  std::size_t model_edges = 0;
  std::size_t frontier = 0;
};

struct MapResult {
  /// The mapped network (hosts named; switch ports correct up to the
  /// per-switch indexing offset). Theorem 1: isomorphic to N - F.
  topo::Topology map;

  /// Probe counts (Figure 6) as recorded by the probe engine.
  probe::ProbeCounters probes;

  /// Mapper-side virtual time (Figure 7).
  common::SimTime elapsed{};

  std::size_t explorations = 0;        // Figure 8 x-axis extent
  std::size_t peak_model_vertices = 0; // the ~750-node peak for C+A+B
  std::size_t merges = 0;
  std::size_t pruned = 0;
  std::vector<TracePoint> trace;
};

}  // namespace sanmap::mapper
