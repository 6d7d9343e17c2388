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
// Builders and checkers read the table differently on purpose. The
// builders read each destination's next-hop tree (routing/routes.hpp): the
// apexes come from one pass over every tree's states, the dependencies
// from the distinct turns the trees make, O(H·(S + E)) in all. The
// checkers walk every route (RouteTable::for_each_route), O(H²·L), and
// derive their own verdict from the hops alone; LegalityWalk and
// DependencyWalk take one walked route at a time so analyze() can serve
// both checkers and the structure lints with a single walk. That walk
// (walk_routes, route_walk.hpp) is split by source across the cores; the
// legality builder runs its blocks of destinations on the same call-local
// pool. Both write disjoint slots or merge in a fixed order, so the
// certificates and verdicts are the same bytes on any core count.
//
// The deadlock certificate is the one deadlock proof production code runs
// (the publish gate and snapshot decode, both through service::certify
// and analyze(); federation, CLI routes and lint). A publish builds it
// once, in the gate.
// Routing's three-color DFS (routing::analyze_routes) is a different
// algorithm over the walked dependency stream and serves as its
// cross-check: the fuzzer's analysis-deadlock-diff oracle and the tests
// diff the two.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "routing/deadlock.hpp"
#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::common {
class CallPool;
}  // namespace sanmap::common

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

/// Builds the legality certificate: takes the labels from the table's own
/// orientation (legality_labels) and classifies every route from the
/// trees: per destination, each state's suffix classified once, successors
/// first. Entries are in key order.
LegalityCertificate build_legality_certificate(
    const topo::Topology& topo, const routing::RoutingResult& routes);
/// The same certificate, its blocks of 64 destinations run on `pool`; each
/// block writes its own (src, dst) slots, so the bytes do not change.
LegalityCertificate build_legality_certificate(
    const topo::Topology& topo, const routing::RoutingResult& routes,
    common::CallPool& pool);

/// The labels a legality certificate for `routes` carries: the table's own
/// orientation over `topo`'s live nodes (0 for dead slots).
std::vector<int> legality_labels(const topo::Topology& topo,
                                 const routing::RoutingResult& routes);

/// The legality checker, fed one walked route at a time so that one walk of
/// the table can serve several checkers (analyze() walks once for both
/// certificates and the structure lints). Each route is classified under
/// `labels` alone into its pair's slot of one array in key order, allocated
/// up front, so routes of different sources may be added concurrently.
/// check() then requires the certificate to carry exactly those labels and
/// to agree with every classification, in key order.
class LegalityWalk {
 public:
  LegalityWalk(const topo::Topology& topo, const routing::RouteTable& table,
               std::vector<int> labels);
  /// Adds a structurally sound route of the table.
  void add(topo::NodeId src, topo::NodeId dst,
           const routing::HostRoute& route);
  bool check(const LegalityCertificate& cert,
             std::vector<std::string>* why = nullptr) const;

 private:
  const topo::Topology* topo_;
  const routing::RouteTable* table_;
  std::vector<int> labels_;
  /// One slot per ordered pair of the table's hosts, in key order: the
  /// apex hop of a legal route, -2 - the offending hop of an illegal one,
  /// or -1 while no route was added to the slot.
  std::vector<int> derived_;
};

/// The deadlock checker's own derivation of the dependency edges, fed one
/// walked route at a time.
class DependencyWalk {
 public:
  explicit DependencyWalk(const topo::Topology& topo);
  /// Adds every consecutive channel pair of a structurally sound route.
  void add(const routing::HostRoute& route);
  /// Adds every dependency another walk over the same topology derived.
  void merge(const DependencyWalk& other);
  bool check(const DeadlockCertificate& cert,
             std::vector<std::string>* why = nullptr) const;

 private:
  const topo::Topology* topo_;
  /// Per dense channel id: one bit per port of the switch it enters that
  /// some route leaves by next.
  std::vector<std::uint8_t> out_ports_;
};

/// Validates a legality certificate against the topology and routes using
/// only the labels it carries: a LegalityWalk fed by walk_routes. Appends one
/// line per discrepancy to `why` (when non-null) and returns true when the
/// certificate holds.
bool check_legality(const topo::Topology& topo,
                    const routing::RoutingResult& routes,
                    const LegalityCertificate& cert,
                    std::vector<std::string>* why = nullptr);

/// Builds the deadlock certificate from explicit channel sequences (for
/// hand-built cyclic route sets), via Kahn elimination over an explicitly
/// constructed dependency graph.
DeadlockCertificate build_deadlock_certificate(
    const topo::Topology& topo,
    const std::vector<std::vector<routing::Channel>>& paths);
/// The same certificate over a route table, its dependencies read off the
/// trees (routing::for_each_dependency) — nothing is walked per hop.
DeadlockCertificate build_deadlock_certificate(
    const topo::Topology& topo, const routing::RoutingResult& routes);

/// Validates a deadlock certificate against the dependency edges re-derived
/// from `paths`. Appends discrepancies to `why`; true when it holds.
bool check_deadlock(const std::vector<std::vector<routing::Channel>>& paths,
                    const DeadlockCertificate& cert,
                    std::vector<std::string>* why = nullptr);
/// The same check against a route table's own channel paths: a
/// DependencyWalk fed by walk_routes.
bool check_deadlock(const topo::Topology& topo,
                    const routing::RoutingResult& routes,
                    const DeadlockCertificate& cert,
                    std::vector<std::string>* why = nullptr);

/// One channel as "wire 7 a->b" for messages and counterexamples.
std::string to_string(const routing::Channel& channel);

/// Test/self-check helper: rewrites the table entries toward one host so
/// that a route to it takes a valid path with a down-to-up turn (up to a
/// switch, down over a wire to a switch that ranks higher, and back up,
/// which is illegal), so gates and CLIs can prove they reject SL101. Every
/// other route that meets the rewritten entries takes the detour too.
/// Returns a description of the named route's illegal hop, or an empty
/// string when the topology offers no such detour.
std::string inject_down_up_turn(const topo::Topology& topo,
                                routing::RoutingResult& routes);

}  // namespace sanmap::analysis
