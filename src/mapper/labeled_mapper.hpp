// The Berkeley algorithm in its proof form (§3.1): the model M is a tree of
// probe-string vertices; replicates are *labeled* the same rather than
// merged; the phases run strictly in sequence —
//
//   INITIALIZATION -> EXPLORE (full BFS to SearchDepth)
//                  -> MERGE  (label deductions to fixpoint)
//                  -> PRUNE  (degree-1 switch vertices)
//
// and the result is M / L, the tree modulo the label equivalence.
//
// This implementation is the executable specification used to validate the
// production BerkeleyMapper: Theorem 1 says both must produce a graph
// isomorphic to N - F. Because it performs no interleaved merging, the tree
// it builds is exponential in the search depth — use it on small networks
// (tests) only; benches use BerkeleyMapper.
#pragma once

#include "mapper/map_result.hpp"
#include "probe/probe_engine.hpp"

namespace sanmap::mapper {

class LabeledMapper {
 public:
  /// Only config.search_depth (and exact_search_depth) is honored; the
  /// proof form always explores the pseudocode's full turn order with no
  /// probe elimination.
  LabeledMapper(probe::ProbeEngine& engine, MapperConfig config);

  MapResult run();

  /// Guard against the exponential tree: run() throws CheckFailure if the
  /// model exceeds this many vertices.
  static constexpr std::size_t kVertexLimit = 2'000'000;

 private:
  probe::ProbeEngine* engine_;
  MapperConfig config_;
};

}  // namespace sanmap::mapper
