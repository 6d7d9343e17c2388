#include "analysis/analyzer.hpp"

#include <sstream>

#include "analysis/table_check.hpp"
#include "common/thread_pool.hpp"

namespace sanmap::analysis {

namespace {

/// Renders a legality certificate's illegal routes as SL101 findings.
void emit_legality_findings(const topo::Topology& map,
                            const LegalityCertificate& cert,
                            DiagnosticReport& report) {
  for (const IllegalRoute& route : cert.illegal) {
    // Name the exact offending hop: the wire traversed at offending_hop
    // goes up after the route already went down.
    std::ostringstream loc;
    loc << "route " << map.name(route.src) << "->" << map.name(route.dst)
        << " hop " << route.offending_hop;
    report.add("SL101", loc.str(),
               "down-to-up turn w.r.t. the spanning order rooted at " +
                   cert.root_name,
               "every legal route is zero or more up hops then zero or "
               "more down hops (paper sec 5.5)");
  }
}

/// Renders a cyclic deadlock certificate as the SL201 finding (no-op when
/// the certificate says deadlock-free).
void emit_deadlock_findings(const DeadlockCertificate& cert,
                            DiagnosticReport& report) {
  if (cert.deadlock_free) {
    return;
  }
  std::ostringstream oss;
  oss << "dependency cycle of " << cert.cycle.size() << " channels: ";
  for (std::size_t i = 0; i < cert.cycle.size(); ++i) {
    if (i > 0) {
      oss << " -> ";
    }
    oss << to_string(cert.cycle[i]);
  }
  report.add("SL201", "", oss.str(),
             "a cyclic channel-dependency graph can deadlock "
             "(Dally & Seitz); reject this table");
}

}  // namespace

AnalysisResult analyze(const topo::Topology& map,
                       const routing::RoutingResult& routes,
                       const AnalyzerOptions& options) {
  AnalysisResult result;
  lint_fabric(map, result.report);

  const topo::NodeId root = routes.orientation.root();
  if (root >= map.node_capacity() || !map.node_alive(root) ||
      !map.is_switch(root)) {
    result.report.add("SL106", "node " + std::to_string(root),
                      "the table's UP*/DOWN* root is not a live switch of "
                      "this map",
                      "the table was computed against a different map");
    return result;
  }
  const std::size_t ordered = routes.orientation.raw_labels().size();
  if (ordered < map.node_capacity()) {
    result.report.add("SL106", "",
                      "the table's UP*/DOWN* order covers " +
                          std::to_string(ordered) + " nodes, this map has " +
                          std::to_string(map.node_capacity()),
                      "the table was computed against a different map");
    return result;
  }

  // The entry-local checker serves the structure lints and both
  // certificates' checks; the certificates themselves are built from the
  // table's trees, and only for a structurally sound table. All run their
  // blocks of destinations on the call's pool.
  common::CallPool pool;
  const TableCheck check(map, routes.routes, legality_labels(map, routes),
                         pool);
  result.report.merge(check.structure());
  if (!check.sound()) {
    result.report.add("SL001", "",
                      "certificates and quality lints skipped: the route "
                      "table is structurally broken",
                      "");
    return result;
  }
  result.analyzed_routes = true;
  result.routes = check.routes();

  result.legality = build_legality_certificate(map, routes, pool);
  emit_legality_findings(map, result.legality, result.report);
  std::vector<std::string> why;
  if (!check.check(result.legality, &why)) {
    result.report.add("SL202", "legality",
                      why.empty() ? "legality certificate recheck failed"
                                  : why.front(),
                      "analyzer self-check: report this as a bug");
  }

  result.deadlock =
      build_deadlock_certificate(map, routing::summarize(routes, pool));
  emit_deadlock_findings(result.deadlock, result.report);
  why.clear();
  if (!check.check(result.deadlock, &why)) {
    result.report.add("SL202", "deadlock",
                      why.empty() ? "deadlock certificate recheck failed"
                                  : why.front(),
                      "analyzer self-check: report this as a bug");
  }

  lint_route_quality(map, routes, options.lints, result.report, pool);
  return result;
}

AnalysisResult analyze_map(const topo::Topology& map) {
  AnalysisResult result;
  lint_fabric(map, result.report);
  return result;
}

std::string to_json(const AnalysisResult& result) {
  std::ostringstream oss;
  const std::string report = result.report.json();
  // Splice the certificate summary into the report object.
  oss << report.substr(0, report.size() - 1) << ",\"certificates\":{";
  oss << "\"analyzed_routes\":" << (result.analyzed_routes ? "true" : "false");
  if (result.analyzed_routes) {
    oss << ",\"legality\":{\"root\":\""
        << json_escape(result.legality.root_name)
        << "\",\"routes\":" << result.routes
        << ",\"all_legal\":" << (result.legality.all_legal() ? "true" : "false")
        << "},\"deadlock\":{\"deadlock_free\":"
        << (result.deadlock.deadlock_free ? "true" : "false")
        << ",\"channels\":" << result.deadlock.channels
        << ",\"dependencies\":" << result.deadlock.dependencies
        << ",\"order_length\":" << result.deadlock.topological_order.size()
        << ",\"cycle_length\":" << result.deadlock.cycle.size() << "}";
  }
  oss << "}}";
  return oss.str();
}

}  // namespace sanmap::analysis
