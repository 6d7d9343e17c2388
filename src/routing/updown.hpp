// UP*/DOWN* edge orientation (§5.5).
//
// A switch as far away from all hosts as possible is chosen as the root of
// a breadth-first labeling; "up" edges point toward the root. Valid routes
// follow zero or more up edges then zero or more down edges — never a turn
// from a down edge onto an up edge — which breaks every channel-dependency
// cycle and hence deadlock (Glass & Ni's turn model; Dally & Seitz).
//
// Labels are (BFS distance, node id) pairs, totally ordered. A locally
// dominant switch — greater than every neighbor, so all its edges lead away
// from it and no route can transit it — is made useful by relabeling it
// below the minimum of its neighbors (§5.5), iterated to a fixpoint.
#pragma once

#include <optional>
#include <vector>

#include "topology/topology.hpp"

namespace sanmap::routing {

struct UpDownOptions {
  /// Hosts ignored when picking the natural root (the paper ignores the
  /// specially-designated utility host).
  std::vector<topo::NodeId> ignore_hosts;
  /// Root override; otherwise topo::switch_farthest_from_hosts picks it.
  std::optional<topo::NodeId> root;
  /// Apply the locally-dominant-switch relabeling fix.
  bool fix_dominant_switches = true;
};

/// The oriented network: the root and the labels behind each wire's up
/// direction. It holds no reference to the topology it was built over.
class UpDownOrientation {
 public:
  UpDownOrientation(const topo::Topology& topo, const UpDownOptions& options);

  /// Adopts an externally computed total order instead of BFS labeling:
  /// `labels` is indexed by NodeId up to topo.node_capacity() and must rank
  /// `root` (a live switch) at the order's minimum among live nodes. The
  /// deadlock-freedom argument only needs the order to be total — up moves
  /// strictly descend in (label, id), so any channel-dependency cycle would
  /// need a down-to-up turn, which legal routes never make. The DFS engine
  /// uses this with preorder labels (routing/engine.hpp).
  UpDownOrientation(const topo::Topology& topo, topo::NodeId root,
                    std::vector<int> labels);

  [[nodiscard]] topo::NodeId root() const { return root_; }

  /// True when traversing `wire` of `topo` (the map the orientation was
  /// built over) out of `from` moves up (toward the root).
  [[nodiscard]] bool goes_up(const topo::Topology& topo, topo::WireId wire,
                             topo::NodeId from) const;

  /// The labels used for ordering, indexed by NodeId (the distance
  /// component; after dominant-switch fixes a label may be negative).
  [[nodiscard]] const std::vector<int>& raw_labels() const { return labels_; }

  /// Number of dominant-switch relabelings that were applied.
  [[nodiscard]] int relabeled_switches() const { return relabeled_; }

 private:
  /// Total order: (label, id) lexicographic; smaller is nearer the root.
  [[nodiscard]] bool less(topo::NodeId a, topo::NodeId b) const;

  topo::NodeId root_;
  std::vector<int> labels_;
  int relabeled_ = 0;
};

}  // namespace sanmap::routing
