// sanlint — the static route/map analyzer.
//
// analyze() takes a map and the route table computed over it and, without
// ever running the simulator, produces structured diagnostics plus two
// machine-checkable certificates: UP*/DOWN* legality (the labels and every
// illegal route) and deadlock freedom via an explicit channel-dependency
// graph (topological order, or a concrete cycle as counterexample). The
// certificate builders read the table's trees; one entry-local checker
// (TableCheck, table_check.hpp) proves the table's structure and re-checks
// both certificates in time linear in the table. It is the gate behind
// `sanmap lint`, the MapCatalog publish path, federation's certification
// and the fuzzer's analysis-clean oracle — one analyzer, four enforcement
// layers.
#pragma once

#include <cstddef>
#include <string>

#include "analysis/certificates.hpp"
#include "analysis/diagnostics.hpp"
#include "analysis/lints.hpp"
#include "routing/routes.hpp"
#include "topology/topology.hpp"

namespace sanmap::analysis {

struct AnalyzerOptions {
  LintOptions lints;
};

struct AnalysisResult {
  DiagnosticReport report;
  /// True when the route phase ran (structurally sound table present).
  bool analyzed_routes = false;
  /// Routed host pairs of the table, as the checker counted them.
  std::size_t routes = 0;
  LegalityCertificate legality;
  DeadlockCertificate deadlock;

  [[nodiscard]] bool clean() const { return report.clean(); }
};

/// Full static analysis of a map plus its route table. The table's
/// orientation is re-derived from its root — the analyzer never trusts the
/// RoutingResult's internal topology pointer. A table whose root is not a
/// live switch of the map, or whose order covers fewer nodes than the map,
/// was computed against a different map: SL106, and nothing else runs.
/// The checker, the legality builder and the quality lints run their
/// blocks of destinations on threads local to the call; the result is the
/// same on any core count.
AnalysisResult analyze(const topo::Topology& map,
                       const routing::RoutingResult& routes,
                       const AnalyzerOptions& options = {});

/// Map-only analysis: the fabric lints (SL307/SL308), no route phase.
AnalysisResult analyze_map(const topo::Topology& map);

/// The whole result as JSON: diagnostics plus certificate summaries.
std::string to_json(const AnalysisResult& result);

}  // namespace sanmap::analysis
