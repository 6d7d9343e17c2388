// The independent checker of a route table and its two certificates, entry
// by entry.
//
// A route of a per-destination table is a walk of a functional graph: each
// (switch, phase) state has one next port toward the destination. So every
// property the analyzer proves of every route follows, by induction along
// the walk, from a property of each entry some source's walk reaches:
//
//  * termination — the reached states of each destination form a tree into
//    that destination host. One colouring pass per destination finds every
//    walk that loops (meets a state still open on itself) or stops at
//    another host; a walk that stops at a missing entry is no route.
//  * legality — with the phase taken from the labels, not from the table's
//    own state index, no entry reached after a down move moves up. The
//    marks are (state, label phase) pairs, so tampered labels or senses
//    show. Only the destinations with such an entry have their routes
//    walked, to name each illegal route's first offending hop.
//  * dependencies — the dependency set is exactly the pairs (channel into a
//    reached state, channel out of it by its entry), one bit per (held
//    channel, port), and the Kahn order must point forward along each.
//
// Structure findings (SL102..SL105) need the map: a wire end the table
// copied that disagrees with the map is suspect, and only the routes that
// meet a suspect end, end at a dead host or do not end at their destination
// are walked and linted (lint_route), in key order.
//
// The checker reads only the table's raw entries (RouteTable::entries()),
// its copied wire ends and up/down senses (first_hop, port_hop), the map,
// the labels and the certificates. It calls no builder code
// (for_each_tree, the shortest-route searches): the builders run reverse
// searches and read each destination's tree, the checker marks states
// forward from the sources. The whole check is O(H·S) for the table. It
// runs in fixed blocks of 64 destinations on the caller's pool; each block
// owns its buffers, its dependency bitmap and its lists, and the blocks
// merge in block order, so the result is the same on any core count.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/certificates.hpp"
#include "analysis/diagnostics.hpp"
#include "common/thread_pool.hpp"
#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::analysis {

class TableCheck {
 public:
  /// Checks `table` against `map` under `labels` (indexed by NodeId,
  /// covering the map).
  TableCheck(const topo::Topology& map, const routing::RouteTable& table,
             std::vector<int> labels, common::CallPool& pool);

  /// No route of the table draws a structure finding.
  [[nodiscard]] bool sound() const { return sound_; }
  /// SL102..SL105 for every route that draws one, in key order.
  [[nodiscard]] const DiagnosticReport& structure() const {
    return structure_;
  }
  /// Routed host pairs: those whose walk reaches the destination host.
  [[nodiscard]] std::size_t routes() const { return routes_; }

  /// The certificate carries the checker's labels and names exactly the
  /// illegal routes the checker derives, each at the same hop. False on a
  /// structurally broken table. Appends discrepancies to `why`.
  bool check(const LegalityCertificate& cert,
             std::vector<std::string>* why = nullptr) const;
  /// The certificate counts exactly the checker's dependencies and its
  /// order (or cycle) holds over them. False on a structurally broken
  /// table. Appends discrepancies to `why`.
  bool check(const DeadlockCertificate& cert,
             std::vector<std::string>* why = nullptr) const;

 private:
  /// sound(), explaining a broken table in `why`.
  bool sound(std::vector<std::string>* why) const;

  const topo::Topology* map_;
  std::vector<int> labels_;
  DiagnosticReport structure_;
  bool sound_ = true;
  std::size_t routes_ = 0;
  std::vector<IllegalRoute> illegal_;
  DependencyGraph dependencies_;
};

}  // namespace sanmap::analysis
