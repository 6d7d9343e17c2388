// The randomized mapping algorithm sketched in §6 (attributed to a
// suggestion of U. Vazirani): a coupon-collecting first phase followed by
// breadth-first completion.
//
//   "Probes of maximal depth are sent out in random directions. This is a
//    considerable saving in probes over randomized depth first search,
//    since the whole length of the path is effectively explored with one
//    probe. The dangling edges of the resulting graph can then be explored
//    in a breadth-first way. If the graph has sufficient expansion, we
//    explore most of it quickly."
//
// It requires the firmware change §6 proposes in the same breath: a host
// hit with routing flits remaining reads the message and answers (telling
// the mapper how many turns were consumed), instead of the hardware
// discarding it. Configure the simulator with
// simnet::HardwareExtensions::hosts_answer_early_hits.
//
// Every answered wild probe contributes its whole consumed prefix to the
// model graph: a chain of switch vertices ending at a named host. Chains
// sharing prefixes deduplicate structurally, and the host anchors feed the
// standard merge cascade, so by the time the breadth-first phase starts,
// much of the core is already identified and the §3.3 known-port skipping
// eliminates most of its probes.
#pragma once

#include "common/rng.hpp"
#include "mapper/map_result.hpp"
#include "mapper/model_graph.hpp"
#include "probe/probe_engine.hpp"

namespace sanmap::mapper {

struct RandomizedConfig {
  MapperConfig base;
  /// Wild probes fired in the coupon-collecting phase, each a random turn
  /// string of base.search_depth turns ("maximal depth").
  int wild_probes = 200;
  std::uint64_t seed = 1;
};

class RandomizedMapper {
 public:
  RandomizedMapper(probe::ProbeEngine& engine, RandomizedConfig config);

  MapResult run();

 private:
  /// Integrates one answered wild probe's consumed prefix into the model.
  void absorb_path(const simnet::Route& route, int consumed_turns,
                   const std::string& host_name, VertexId root_switch,
                   class Explorer& explorer);

  probe::ProbeEngine* engine_;
  RandomizedConfig config_;
  ModelGraph model_;
  common::Rng rng_;
};

}  // namespace sanmap::mapper
