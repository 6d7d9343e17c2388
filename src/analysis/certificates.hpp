// Machine-checkable certificates emitted by the static analyzer.
//
// A certificate is self-contained evidence that a route table is safe — or a
// concrete counterexample when it is not — that a small independent checker
// can validate without re-running the analyzer's derivation:
//
//  * LegalityCertificate — the UP*/DOWN* labels (total order) plus, per
//    route, the apex hop splitting the up-prefix from the down-suffix.
//    check_legality() re-walks every route against the labels alone.
//  * DeadlockCertificate — the explicit channel-dependency graph verdict:
//    a topological order over the dependent channels when acyclic (Kahn
//    elimination), or one concrete dependency cycle when not.
//    check_deadlock() re-derives the dependency edges from the routes and
//    validates the order / cycle against them.
//
// The certificate builders here are deliberately a third deadlock
// implementation (after routing's DFS 3-coloring and verify's Kahn detector
// over analyzer-shared inputs), so the fuzzer's analysis_clean oracle can
// diff three independent verdicts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "routing/deadlock.hpp"
#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::analysis {

/// Legality of one route under the certificate's labels.
struct RouteLegality {
  topo::NodeId src = topo::kInvalidNode;
  topo::NodeId dst = topo::kInvalidNode;
  /// Hops [0, apex_hop) go up, hops [apex_hop, hops) go down.
  int apex_hop = 0;
  bool legal = true;
  /// First hop index that turns down-to-up; -1 when legal.
  int offending_hop = -1;
};

struct LegalityCertificate {
  /// The root the labels were computed from (name survives re-serialization).
  topo::NodeId root = topo::kInvalidNode;
  std::string root_name;
  /// (label, id)-lexicographic total order, indexed by NodeId; meaningless
  /// for dead slots. After dominant-switch fixes labels may be negative.
  std::vector<int> labels;
  std::vector<RouteLegality> routes;
  bool all_legal = true;
};

struct DeadlockCertificate {
  bool deadlock_free = false;
  std::size_t channels = 0;
  std::size_t dependencies = 0;
  /// deadlock_free: every channel that participates in a dependency, in an
  /// order where all dependency edges point forward.
  std::vector<routing::Channel> topological_order;
  /// !deadlock_free: a concrete dependency cycle (closing edge implied from
  /// back() to front()).
  std::vector<routing::Channel> cycle;
};

/// Builds the legality certificate: recomputes the UP*/DOWN* labels from
/// `routes.orientation.root()` (never trusting the orientation's internal
/// topology pointer, which dangles once a RoutingResult is moved across
/// snapshots) and classifies every route.
LegalityCertificate build_legality_certificate(
    const topo::Topology& topo, const routing::RoutingResult& routes);

/// Validates a legality certificate against the topology and routes using
/// only the labels it carries. Appends one line per discrepancy to `why`
/// (when non-null) and returns true when the certificate holds.
bool check_legality(const topo::Topology& topo,
                    const routing::RoutingResult& routes,
                    const LegalityCertificate& cert,
                    std::vector<std::string>* why = nullptr);

/// Builds the deadlock certificate from explicit channel sequences (the
/// same routing::route_channel_paths inputs the dynamic detectors use),
/// via Kahn elimination over an explicitly constructed dependency graph.
DeadlockCertificate build_deadlock_certificate(
    const topo::Topology& topo,
    const std::vector<std::vector<routing::Channel>>& paths);

/// Validates a deadlock certificate against the dependency edges re-derived
/// from `paths`. Appends discrepancies to `why`; true when it holds.
bool check_deadlock(const std::vector<std::vector<routing::Channel>>& paths,
                    const DeadlockCertificate& cert,
                    std::vector<std::string>* why = nullptr);

/// One channel as "wire 7 a->b" for messages and counterexamples.
std::string to_string(const routing::Channel& channel);

/// Test/self-check helper: rewrites one route of `routes` into a valid path
/// that takes a down-to-up turn (host up to its switch, up over a wire whose
/// far switch ranks higher — i.e. a down move — and back, which is the
/// illegal up), so gates and CLIs can prove they reject SL101. Returns a
/// description of the injected hop, or an empty string when the topology
/// offers no such detour.
std::string inject_down_up_turn(const topo::Topology& topo,
                                routing::RoutingResult& routes);

}  // namespace sanmap::analysis
