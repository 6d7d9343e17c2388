// The brute-force reference for the entry-local table checker
// (analysis::TableCheck): walk every route of the table in key order and
// derive the structure findings, the legality of each route and the channel
// dependencies from the hops alone, O(H²·L). It shares nothing with the
// checker but lint_route (the per-route SL1xx rules) and the certificate
// comparisons (check_illegal_routes, DependencyGraph::check); what it
// derives, it derives another way. The tests hold the checker to it finding
// for finding, and the route goldens digest its per-route classification.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/certificates.hpp"
#include "analysis/diagnostics.hpp"
#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::reference {

/// Legality of one walked route under the labels.
struct RouteLegality {
  topo::NodeId src = topo::kInvalidNode;
  topo::NodeId dst = topo::kInvalidNode;
  /// Hops [0, apex_hop) go up, hops [apex_hop, hops) go down.
  int apex_hop = 0;
  bool legal = true;
  /// First hop index that turns down-to-up; -1 when legal.
  int offending_hop = -1;
};

/// The legality walk: classifies each walked route under `labels` alone.
class LegalityWalk {
 public:
  LegalityWalk(const topo::Topology& topo, std::vector<int> labels);
  void add(topo::NodeId src, topo::NodeId dst,
           const routing::HostRoute& route);
  /// Every added route's classification, in the order added.
  [[nodiscard]] const std::vector<RouteLegality>& routes() const {
    return routes_;
  }
  bool check(const analysis::LegalityCertificate& cert,
             std::vector<std::string>* why = nullptr) const;

 private:
  const topo::Topology* topo_;
  std::vector<int> labels_;
  std::vector<RouteLegality> routes_;
};

/// The dependency walk: every consecutive channel pair of every added route,
/// its channels read off the map's wires.
class DependencyWalk {
 public:
  explicit DependencyWalk(const topo::Topology& topo) : topo_(&topo) {}
  void add(const routing::HostRoute& route);
  bool check(const analysis::DeadlockCertificate& cert,
             std::vector<std::string>* why = nullptr) const {
    return graph_.check(cert, why);
  }

 private:
  const topo::Topology* topo_;
  analysis::DependencyGraph graph_;
};

/// One walk of every route, and what it derived.
struct Walk {
  /// SL102..SL105 of every walked route, in key order.
  analysis::DiagnosticReport structure;
  bool sound = true;
  /// Routes walked (those not stopped by a missing entry).
  std::size_t routes = 0;
  LegalityWalk legality;
  DependencyWalk dependencies;

  /// The walks' verdicts; false on a structurally broken table, as the
  /// checker's are.
  bool check(const analysis::LegalityCertificate& cert,
             std::vector<std::string>* why = nullptr) const;
  bool check(const analysis::DeadlockCertificate& cert,
             std::vector<std::string>* why = nullptr) const;
};

/// Walks every route of `table` serially in key order: each is linted, and
/// each sound one classified under `labels` and its dependencies added.
Walk walk_routes(const topo::Topology& topo, const routing::RouteTable& table,
                 std::vector<int> labels);

}  // namespace sanmap::reference
