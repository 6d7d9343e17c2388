// Merging partial network maps into one globally consistent view — the
// "central question" of §6's parallel-mapping discussion:
//
//   "It is plausible that every network host could map local regions, and
//    upon discovering another host exchange their partial maps. The central
//    question is how to merge such local views into a stable,
//    globally-consistent one."
//
// The answer implemented here is the mapping algorithm's own merge
// machinery, re-applied: each partial map's nodes are loaded into one model
// graph (its port numbers become slot indices in a per-switch frame that is
// only valid up to an offset — exactly what the model graph tracks), hosts
// carry their globally unique names, and the standard deduction cascade
// (host anchoring + one-wire-per-port slot conflicts, §3.2) aligns and
// fuses everything the evidence connects.
//
// Regions that share no host evidence cannot be identified — faithfully:
// the merged result then contains both copies, just as a single mapper
// would have kept replicates it could not prove equal.
#pragma once

#include <vector>

#include "common/sim_time.hpp"
#include "topology/topology.hpp"

namespace sanmap::mapper {

/// Charged per loaded model vertex for shipping and fusing partial maps:
/// the merge term of the max-plus-merge timing model ParallelMapper and
/// FederatedMapper share.
inline constexpr common::SimTime kMergeCostPerVertex = common::SimTime::us(20);

struct PartialMergeStats {
  std::size_t loaded_vertices = 0;
  std::size_t merges = 0;
  std::size_t pruned = 0;
};

/// Fuses partial maps. Host names are the anchors; switch ports may differ
/// by a per-switch offset between parts. Throws CheckFailure if the parts
/// contradict each other (e.g. one host on two different switches).
topo::Topology merge_partial_maps(const std::vector<topo::Topology>& parts,
                                  PartialMergeStats* stats = nullptr);

}  // namespace sanmap::mapper
