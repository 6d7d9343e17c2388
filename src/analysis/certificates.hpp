// Machine-checkable certificates emitted by the static analyzer.
//
// A certificate is self-contained evidence that a route table is safe — or a
// concrete counterexample when it is not — that an independent checker can
// validate without re-running the analyzer's derivation:
//
//  * LegalityCertificate — the UP*/DOWN* labels (total order) plus the
//    illegal routes, each with its first offending hop: the counterexamples.
//    An empty list claims every route of the table is legal.
//  * DeadlockCertificate — the explicit channel-dependency graph verdict:
//    a topological order over the dependent channels when acyclic (Kahn
//    elimination), or one concrete dependency cycle when not.
//
// Builders and the checker read the table differently on purpose. The
// builders read each destination's next-hop tree (routing/routes.hpp,
// for_each_tree): the illegal routes come from one successors-first pass
// over every tree's states, the dependencies from the distinct turns the
// trees make (routing::summarize), O(H·(S + E)) in all. The checker
// (TableCheck, table_check.hpp) reads only the raw entries, the table's
// copied wire ends and senses, and the carried evidence: it marks the
// states each source's walk reaches, forward from its first hop, and
// proves legality, termination and the dependency order entry by entry,
// O(H·S) for the table. check_legality() and check_deadlock() over a
// table are that checker. Both builders and the checker run their blocks
// of destinations on a call-local pool and merge the blocks in a fixed
// order, so the certificates and verdicts are the same bytes on any core
// count.
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

/// One illegal route: the first hop that turns down-to-up under the labels.
struct IllegalRoute {
  topo::NodeId src = topo::kInvalidNode;
  topo::NodeId dst = topo::kInvalidNode;
  /// Hop index (0 is the source's own link) of the first up move made
  /// after a down move.
  int offending_hop = -1;

  friend constexpr auto operator<=>(const IllegalRoute&,
                                    const IllegalRoute&) = default;
};

struct LegalityCertificate {
  /// The root the labels were computed from (name survives re-serialization).
  topo::NodeId root = topo::kInvalidNode;
  std::string root_name;
  /// (label, id)-lexicographic total order, indexed by NodeId; meaningless
  /// for dead slots. After dominant-switch fixes labels may be negative.
  std::vector<int> labels;
  /// Every illegal route of the table, in key order.
  std::vector<IllegalRoute> illegal;

  [[nodiscard]] bool all_legal() const { return illegal.empty(); }
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
/// orientation (legality_labels) and finds the illegal routes from the
/// trees: per destination, each state's suffix classified once, successors
/// first.
LegalityCertificate build_legality_certificate(
    const topo::Topology& topo, const routing::RoutingResult& routes);
/// The same certificate, its blocks of 64 destinations run on `pool`; the
/// blocks' illegal routes are put in key order, so the bytes do not change.
LegalityCertificate build_legality_certificate(
    const topo::Topology& topo, const routing::RoutingResult& routes,
    common::CallPool& pool);

/// The labels a legality certificate for `routes` carries: the table's own
/// orientation over `topo`'s live nodes (0 for dead slots).
std::vector<int> legality_labels(const topo::Topology& topo,
                                 const routing::RoutingResult& routes);

/// Validates a legality certificate against a checker's own derivation:
/// the labels it classified the routes under and the illegal routes it
/// found, in key order. The certificate must carry exactly those labels and
/// name exactly those routes, each at the same hop. Appends one line per
/// discrepancy to `why` (when non-null); true when the certificate holds.
bool check_illegal_routes(const topo::Topology& topo,
                          const std::vector<int>& labels,
                          const std::vector<IllegalRoute>& derived,
                          const LegalityCertificate& cert,
                          std::vector<std::string>* why = nullptr);

/// Validates a legality certificate against a route table using only the
/// labels it carries: TableCheck (table_check.hpp) under `cert.labels`.
bool check_legality(const topo::Topology& topo,
                    const routing::RoutingResult& routes,
                    const LegalityCertificate& cert,
                    std::vector<std::string>* why = nullptr);

/// A channel-dependency graph as a checker derives it, over dense channel
/// ids (wire * 2 + a-to-b): per held channel, the distinct channels
/// requested next.
class DependencyGraph {
 public:
  /// Adds the dependency held -> requested (a repeat is a no-op).
  void add(std::size_t held, std::size_t requested);
  [[nodiscard]] std::size_t size() const { return count_; }

  /// Validates a deadlock certificate against exactly these dependencies:
  /// the count, then every edge forward in the topological order, or every
  /// edge of the cycle a real dependency. Appends discrepancies to `why`;
  /// true when it holds.
  bool check(const DeadlockCertificate& cert,
             std::vector<std::string>* why = nullptr) const;

 private:
  std::vector<std::vector<std::size_t>> next_;
  std::size_t count_ = 0;
  std::size_t max_id_ = 0;
};

/// Builds the deadlock certificate from explicit channel sequences (for
/// hand-built cyclic route sets), via Kahn elimination over an explicitly
/// constructed dependency graph.
DeadlockCertificate build_deadlock_certificate(
    const topo::Topology& topo,
    const std::vector<std::vector<routing::Channel>>& paths);
/// The same certificate over a route table, its dependencies the turns of
/// the table's summary (routing::summarize, routing::for_each_dependency) —
/// nothing is walked per hop. The elimination itself is serial.
DeadlockCertificate build_deadlock_certificate(
    const topo::Topology& topo, const routing::TableSummary& summary);
/// The same, summarizing `routes` on a pool of its own.
DeadlockCertificate build_deadlock_certificate(
    const topo::Topology& topo, const routing::RoutingResult& routes);

/// Validates a deadlock certificate against the dependency edges re-derived
/// from `paths`. Appends discrepancies to `why`; true when it holds.
bool check_deadlock(const std::vector<std::vector<routing::Channel>>& paths,
                    const DeadlockCertificate& cert,
                    std::vector<std::string>* why = nullptr);
/// The same check against a route table's own entries: TableCheck.
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
