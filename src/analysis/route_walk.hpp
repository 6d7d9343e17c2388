// The independent checkers' walk of every route, split by source across
// the cores.
//
// The route checkers are brute force on purpose (certificates.hpp): they
// walk every route, O(H²·L), and derive legality, channel dependencies and
// structural soundness from the hops alone. walk_routes() is the one place
// that walk happens. It splits the sources into fixed-size chunks, walks
// each chunk with its own state (route buffer, diagnostics, dependency
// bitmap) and merges the chunks in chunk order, so the merged output never
// depends on how the chunks were scheduled or how many cores ran them.
#pragma once

#include <cstddef>
#include <cstdint>

#include "analysis/certificates.hpp"
#include "analysis/diagnostics.hpp"
#include "common/thread_pool.hpp"
#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::analysis {

/// Sources per chunk of the walk. A constant, not the core count, so the
/// chunks and their merge are the same on every machine.
inline constexpr std::uint32_t kWalkChunk = 16;

/// What one walk checks; a null member is not checked.
struct RouteChecks {
  /// SL102..SL105 per route (lint_route). When set, only routes the walk
  /// has found sound so far in their chunk reach the checkers below.
  DiagnosticReport* structure = nullptr;
  LegalityWalk* legality = nullptr;
  DependencyWalk* dependencies = nullptr;
};

/// Walks every route of `table` once, kWalkChunk sources at a time on
/// `pool`, feeding each walked route to the requested checks. Each chunk
/// owns its route buffer, diagnostics and dependency bitmap; legality
/// classifications land in their pair's slot. Chunk reports are merged
/// into checks.structure in chunk order (so it stores the first findings
/// per code in key order, as a serial walk would) and chunk bitmaps are
/// OR-ed into checks.dependencies. Returns true when every route is
/// structurally sound (always, when checks.structure is null).
bool walk_routes(const topo::Topology& topo, const routing::RouteTable& table,
                 const RouteChecks& checks, common::CallPool& pool);

}  // namespace sanmap::analysis
