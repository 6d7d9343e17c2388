// The Myricom Algorithm (paper §4.1) — the baseline the Berkeley Algorithm
// is evaluated against in Figure 10.
//
// A breadth-first exploration with *eager* replicate detection: every
// frontier switch is first checked against each already-explored switch B
// (reached by turns S1..Sm) with comparison probes T1..Tn X -Sm..-S1 over
// X in {-7..-1,+1..+7}; a returned comparison probe proves the frontier
// switch IS B entered at B-relative port -X. Only genuinely new switches
// are explored, with three per-port sweeps:
//
//   loop  P t -t  rev(P)    — single-port loopback plug test
//   sw    P t 0 -t rev(P)   — is port (entry + t) connected to a switch?
//   host  P t               — is port (entry + t) connected to a host?
//
// Message accounting follows Figure 10's four categories (loop / host /
// sw / comp). The per-message software overheads are multiplied by a
// processor-slowdown factor: Myricom's mapper runs in the interface
// firmware on a 37.5 MHz LANai versus the 167 MHz UltraSPARC host (§4.2).
//
// Because switch identity comes from comparison probes rather than host
// anchors, the Myricom Algorithm maps host-free regions too: on a quiescent
// cut-through network its result is isomorphic to all of N, not N - F.
// It requires the cut-through collision model (the hardware it was written
// for); circuit routing could make comparison probes self-collide and
// replicate detection would then be unsound.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/sim_time.hpp"
#include "simnet/network.hpp"
#include "topology/topology.hpp"

namespace sanmap::myricom {

struct MyricomCounters {
  std::uint64_t loop_probes = 0;
  std::uint64_t host_probes = 0;
  std::uint64_t switch_probes = 0;
  std::uint64_t compare_probes = 0;
  std::uint64_t host_hits = 0;
  std::uint64_t switch_hits = 0;
  std::uint64_t compare_hits = 0;

  [[nodiscard]] std::uint64_t total() const {
    return loop_probes + host_probes + switch_probes + compare_probes;
  }
};

struct MyricomConfig {
  /// Firmware-vs-host processor factor applied to per-message software
  /// overheads (37.5 MHz LANai embedded processor vs 167 MHz UltraSPARC).
  double processor_slowdown = 4.5;

  /// Use the §3.3 feasibility narrowing for the loop/sw sweeps ("up to 14
  /// messages"). The host sweep always covers all 14 turns, which is what
  /// Figure 10's dominant host-probe counts imply.
  bool narrow_sweeps = true;
};

struct MyricomResult {
  topo::Topology map;
  MyricomCounters probes;
  common::SimTime elapsed{};
  std::size_t explored_switches = 0;
  std::size_t frontier_pops = 0;
};

class MyricomMapper {
 public:
  /// `net` must use the cut-through collision model (see header comment).
  MyricomMapper(simnet::Network& net, topo::NodeId mapper_host,
                MyricomConfig config = {});

  MyricomResult run();

 private:
  simnet::Network* net_;
  topo::NodeId mapper_host_;
  MyricomConfig config_;
};

}  // namespace sanmap::myricom
