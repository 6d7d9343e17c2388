// Shortest UP*/DOWN*-compliant paths over one orientation: the shared
// preparation of every emitter that routes "up prefix + down suffix through
// the best apex" — the updown and DFS engines and the route optimizer.
//
// It holds a compact index over the live nodes, one Floyd-Warshall table
// over the up digraph, and a dense parallel-cable lookup. The down digraph
// is the transpose of the up digraph (every cable is an up move one way and
// a down move the other), and Floyd-Warshall commutes with transposition —
// the relaxation at step k for (i, j) in one is the relaxation for (j, i)
// in the other — so down distances and paths are read off the up table:
// down(k -> j) = up(j -> k), and the down path k -> j is the up path
// j -> k reversed. Emitted tables are identical to running a second table
// over the down digraph.
//
// Costs: O(n^3) time and n^2 ints twice (distances and intermediates) for
// the table; the apex search for a host pair scans the source's up-cone
// only, and expansion is linear in the path.
#pragma once

#include <cstddef>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "routing/updown.hpp"
#include "topology/topology.hpp"

namespace sanmap::routing::detail {

constexpr int kUnreachable = std::numeric_limits<int>::max() / 4;

class UpDownPaths {
 public:
  /// A parallel-cable group: every non-loop cable between compact nodes
  /// `lo` < `hi`, in ascending wire id.
  struct CableGroup {
    std::size_t lo = 0;
    std::size_t hi = 0;
    std::size_t begin = 0;  // range into the flat wire list
    std::size_t end = 0;
  };

  UpDownPaths(const topo::Topology& topo,
              const UpDownOrientation& orientation);

  [[nodiscard]] topo::NodeId node(std::size_t i) const { return nodes_[i]; }
  [[nodiscard]] std::size_t index(topo::NodeId n) const {
    return index_of_[n];
  }

  /// The up-cone of `si`: every node it reaches by up moves alone,
  /// ascending. Every apex of a route from `si` lies in it.
  void up_cone(std::size_t si, std::vector<std::size_t>& cone) const;

  /// The apexes minimizing up(si, k) + down(k, di) over `cone` (si's
  /// up-cone), ascending, into `apexes`. Returns that minimum, or
  /// kUnreachable when no apex joins the two.
  int tied_apexes(std::size_t si, std::size_t di,
                  const std::vector<std::size_t>& cone,
                  std::vector<std::size_t>& apexes) const;

  /// The node sequence si ... apex (up moves) ... di (down moves).
  void path(std::size_t si, std::size_t apex, std::size_t di,
            std::vector<std::size_t>& out) const;

  /// A candidate route for load-aware selection.
  struct Choice {
    std::vector<std::size_t> sequence;
    /// The cable taken at each hop.
    std::vector<topo::WireId> wires;
    /// The hottest crossed channel's load once the route is added.
    std::size_t max_load = 0;
    /// The load already on the channels it crosses.
    std::size_t total_load = 0;
  };

  /// Load-aware selection among `apexes` (the tied apexes of si -> di),
  /// shared by the DFS engine and the route optimizer: each apex's path
  /// takes the coldest cable per hop (the first on ties), and a route
  /// scoring strictly lower than `best` in (max_load, total_load) replaces
  /// it, apexes in order. `load` holds route counts per channel_slot
  /// (routing/congestion.hpp); `scratch` is working storage. Returns whether
  /// `best` was replaced.
  bool coldest_route(const topo::Topology& topo, std::size_t si,
                     std::size_t di, const std::vector<std::size_t>& apexes,
                     const std::vector<std::size_t>& load, Choice& best,
                     Choice& scratch) const;

  /// The cables joining compact nodes i and j (either order), ascending by
  /// wire id. Empty when they are not adjacent.
  [[nodiscard]] std::span<const topo::WireId> cables(std::size_t i,
                                                     std::size_t j) const;

  /// Every adjacent node pair's cable group, in ascending (lo, hi) order.
  [[nodiscard]] const std::vector<CableGroup>& groups() const {
    return groups_;
  }
  [[nodiscard]] std::span<const topo::WireId> cables(
      const CableGroup& group) const {
    return {wires_.data() + group.begin, group.end - group.begin};
  }
  /// Index into groups() of the pair (i, j), or groups().size() when the
  /// two are not adjacent.
  [[nodiscard]] std::size_t group_of(std::size_t i, std::size_t j) const;

 private:
  /// Appends the up-path node sequence strictly after i up to and
  /// including j.
  void expand(std::size_t i, std::size_t j,
              std::vector<std::size_t>& out) const;

  std::vector<topo::NodeId> nodes_;
  std::vector<std::size_t> index_of_;
  std::size_t n_ = 0;
  std::vector<int> dist_;  // n*n up-move distances
  std::vector<int> via_;   // n*n intermediate; -1 = direct (or none)
  std::vector<topo::WireId> wires_;  // cables, grouped by node pair
  std::vector<CableGroup> groups_;
  /// Per compact node: (neighbor, group) entries, ascending by neighbor,
  /// in [neighbor_begin_[i], neighbor_begin_[i + 1]).
  std::vector<std::size_t> neighbor_begin_;
  std::vector<std::pair<std::size_t, std::size_t>> neighbors_;
};

}  // namespace sanmap::routing::detail
