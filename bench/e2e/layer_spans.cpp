// Layer spans for bench_e2e_traced, taken at the link boundary.
//
// The traced binary links with `--wrap=SYMBOL` for every mangled name below;
// the CMakeLists reads the list from this file. The linker then sends each
// call to SYMBOL from another object file to __wrap_SYMBOL, which opens a
// span and calls the original as __real_SYMBOL. That covers the CLI's calls,
// the benchmark's, and the libraries' calls into each other, such as the
// refresh loop's health checks, without instrumenting the libraries. A call
// inside the defining source file is not redirected, so no call is counted
// twice.
//
// The symbols are Itanium-mangled names (GCC or Clang with libstdc++ on
// Linux). A renamed or re-typed function fails the traced link instead of
// losing its span silently.
#include <istream>
#include <string>

#include "analysis/analyzer.hpp"
#include "mapper/berkeley_mapper.hpp"
#include "routing/deadlock.hpp"
#include "routing/distribute.hpp"
#include "routing/route_health.hpp"
#include "routing/routes.hpp"
#include "service/map_catalog.hpp"
#include "service/refresh_loop.hpp"
#include "service/snapshot.hpp"
#include "service/snapshot_codec.hpp"
#include "topology/algorithms.hpp"
#include "topology/isomorphism.hpp"
#include "topology/serialize.hpp"
#include "trace.hpp"

#ifdef __clang__
#pragma clang diagnostic ignored "-Wreturn-type-c-linkage"
#endif

#define SANMAP_E2E_CAT(a, b) a##b
#define SANMAP_REAL(sym) SANMAP_E2E_CAT(__real_, sym)
#define SANMAP_WRAP(sym) SANMAP_E2E_CAT(__wrap_, sym)

namespace trace = sanmap::e2e::trace;
namespace topo = sanmap::topo;
namespace common = sanmap::common;
namespace mapper = sanmap::mapper;
namespace routing = sanmap::routing;
namespace analysis = sanmap::analysis;
namespace service = sanmap::service;
namespace simnet = sanmap::simnet;

extern "C" {

// ---- topology ---------------------------------------------------------------

#define SYM_READ_TOPOLOGY _ZN6sanmap4topo13read_topologyERSib
topo::Topology SANMAP_REAL(SYM_READ_TOPOLOGY)(std::istream&, bool);
topo::Topology SANMAP_WRAP(SYM_READ_TOPOLOGY)(std::istream& is,
                                              bool stop_at_end) {
  const trace::Span span("topology.parse");
  return SANMAP_REAL(SYM_READ_TOPOLOGY)(is, stop_at_end);
}

#define SYM_FROM_TEXT \
  _ZN6sanmap4topo9from_textERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE
topo::Topology SANMAP_REAL(SYM_FROM_TEXT)(const std::string&);
topo::Topology SANMAP_WRAP(SYM_FROM_TEXT)(const std::string& text) {
  const trace::Span span("topology.parse");
  return SANMAP_REAL(SYM_FROM_TEXT)(text);
}

#define SYM_SEARCH_DEPTH _ZN6sanmap4topo12search_depthERKNS0_8TopologyEj
int SANMAP_REAL(SYM_SEARCH_DEPTH)(const topo::Topology&, topo::NodeId);
int SANMAP_WRAP(SYM_SEARCH_DEPTH)(const topo::Topology& t,
                                  topo::NodeId mapper_host) {
  const trace::Span span("topology.search_depth");
  return SANMAP_REAL(SYM_SEARCH_DEPTH)(t, mapper_host);
}

#define SYM_ISOMORPHIC \
  _ZN6sanmap4topo10isomorphicERKNS0_8TopologyES3_RKNS0_10IsoOptionsE
bool SANMAP_REAL(SYM_ISOMORPHIC)(const topo::Topology&, const topo::Topology&,
                                 const topo::IsoOptions&);
bool SANMAP_WRAP(SYM_ISOMORPHIC)(const topo::Topology& a,
                                 const topo::Topology& b,
                                 const topo::IsoOptions& options) {
  const trace::Span span("topology.verify");
  return SANMAP_REAL(SYM_ISOMORPHIC)(a, b, options);
}

#define SYM_TO_TEXT _ZN6sanmap4topo7to_textB5cxx11ERKNS0_8TopologyE
std::string SANMAP_REAL(SYM_TO_TEXT)(const topo::Topology&);
std::string SANMAP_WRAP(SYM_TO_TEXT)(const topo::Topology& t) {
  const trace::Span span("topology.to_text");
  return SANMAP_REAL(SYM_TO_TEXT)(t);
}

// ---- mapper -----------------------------------------------------------------

#define SYM_BERKELEY_RUN _ZN6sanmap6mapper14BerkeleyMapper3runEv
mapper::MapResult SANMAP_REAL(SYM_BERKELEY_RUN)(mapper::BerkeleyMapper*);
mapper::MapResult SANMAP_WRAP(SYM_BERKELEY_RUN)(mapper::BerkeleyMapper* self) {
  const trace::Span span("mapper.berkeley");
  mapper::MapResult result = SANMAP_REAL(SYM_BERKELEY_RUN)(self);
  trace::count("probe.probes", static_cast<double>(result.probes.total()));
  trace::count("probe.virtual_ms", result.elapsed.to_ms());
  return result;
}

// ---- routing ----------------------------------------------------------------

#define SYM_COMPUTE_ROUTES \
  _ZN6sanmap7routing14compute_routesERKNS_4topo8TopologyENS0_10EngineKindERKNS0_13UpDownOptionsEm
routing::RoutingResult SANMAP_REAL(SYM_COMPUTE_ROUTES)(
    const topo::Topology&, routing::EngineKind, const routing::UpDownOptions&,
    std::uint64_t);
routing::RoutingResult SANMAP_WRAP(SYM_COMPUTE_ROUTES)(
    const topo::Topology& t, routing::EngineKind kind,
    const routing::UpDownOptions& options, std::uint64_t seed) {
  const trace::Span span("routing.compute_routes");
  routing::RoutingResult result =
      SANMAP_REAL(SYM_COMPUTE_ROUTES)(t, kind, options, seed);
  trace::count("routing.routes", static_cast<double>(result.routes.size()));
  return result;
}

#define SYM_ANALYZE_ROUTES \
  _ZN6sanmap7routing14analyze_routesERKNS_4topo8TopologyERKNS0_13RoutingResultE
routing::DeadlockAnalysis SANMAP_REAL(SYM_ANALYZE_ROUTES)(
    const topo::Topology&, const routing::RoutingResult&);
routing::DeadlockAnalysis SANMAP_WRAP(SYM_ANALYZE_ROUTES)(
    const topo::Topology& t, const routing::RoutingResult& routes) {
  const trace::Span span("routing.analyze_routes");
  routing::DeadlockAnalysis result = SANMAP_REAL(SYM_ANALYZE_ROUTES)(t, routes);
  trace::count("routing.dependencies",
               static_cast<double>(result.dependencies));
  return result;
}

#define SYM_DISTRIBUTE_TABLES \
  _ZN6sanmap7routing17distribute_tablesERNS_6simnet7NetworkERKNS0_13RoutingResultERKNS_4topo8TopologyERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEENS_6common7SimTimeE
routing::DistributionResult SANMAP_REAL(SYM_DISTRIBUTE_TABLES)(
    simnet::Network&, const routing::RoutingResult&, const topo::Topology&,
    const std::string&, common::SimTime);
routing::DistributionResult SANMAP_WRAP(SYM_DISTRIBUTE_TABLES)(
    simnet::Network& net, const routing::RoutingResult& routes,
    const topo::Topology& map, const std::string& master_name,
    common::SimTime at) {
  const trace::Span span("routing.distribute_tables");
  return SANMAP_REAL(SYM_DISTRIBUTE_TABLES)(net, routes, map, master_name, at);
}

#define SYM_CHECK_ROUTES \
  _ZN6sanmap7routing12check_routesERNS_6simnet7NetworkERKNS0_13RoutingResultERKNS_4topo8TopologyENS_6common7SimTimeE
routing::RouteHealthReport SANMAP_REAL(SYM_CHECK_ROUTES)(
    simnet::Network&, const routing::RoutingResult&, const topo::Topology&,
    common::SimTime);
routing::RouteHealthReport SANMAP_WRAP(SYM_CHECK_ROUTES)(
    simnet::Network& net, const routing::RoutingResult& routes,
    const topo::Topology& map, common::SimTime at) {
  const trace::Span span("routing.check_routes");
  routing::RouteHealthReport report =
      SANMAP_REAL(SYM_CHECK_ROUTES)(net, routes, map, at);
  trace::count("service.health.routes_checked",
               static_cast<double>(report.routes_checked));
  return report;
}

// ---- analysis ---------------------------------------------------------------

#define SYM_ANALYZE \
  _ZN6sanmap8analysis7analyzeERKNS_4topo8TopologyERKNS_7routing13RoutingResultERKNS0_15AnalyzerOptionsE
analysis::AnalysisResult SANMAP_REAL(SYM_ANALYZE)(
    const topo::Topology&, const routing::RoutingResult&,
    const analysis::AnalyzerOptions&);
analysis::AnalysisResult SANMAP_WRAP(SYM_ANALYZE)(
    const topo::Topology& map, const routing::RoutingResult& routes,
    const analysis::AnalyzerOptions& options) {
  const trace::Span span("analysis.analyze");
  return SANMAP_REAL(SYM_ANALYZE)(map, routes, options);
}

// ---- service ----------------------------------------------------------------

#define SYM_BOOTSTRAP _ZN6sanmap7service11RefreshLoop9bootstrapEv
service::TickReport SANMAP_REAL(SYM_BOOTSTRAP)(service::RefreshLoop*);
service::TickReport SANMAP_WRAP(SYM_BOOTSTRAP)(service::RefreshLoop* self) {
  const trace::Span span("service.bootstrap");
  return SANMAP_REAL(SYM_BOOTSTRAP)(self);
}

#define SYM_TICK _ZN6sanmap7service11RefreshLoop4tickEv
service::TickReport SANMAP_REAL(SYM_TICK)(service::RefreshLoop*);
service::TickReport SANMAP_WRAP(SYM_TICK)(service::RefreshLoop* self) {
  trace::Span span("service.tick_observe");
  service::TickReport report = SANMAP_REAL(SYM_TICK)(self);
  if (report.remapped) {
    span.rename("service.tick_repair");
    trace::count(report.remap == service::RemapKind::kIncremental
                     ? "service.repair.incremental"
                     : "service.repair.full",
                 1);
    trace::count("service.repair.probes",
                 static_cast<double>(report.probes_used));
  }
  return report;
}

#define SYM_BUILD_SNAPSHOT \
  _ZN6sanmap7service14build_snapshotERKNS_4topo8TopologyERKNS0_15SnapshotOptionsENS_6common7SimTimeE
service::MapSnapshot SANMAP_REAL(SYM_BUILD_SNAPSHOT)(
    const topo::Topology&, const service::SnapshotOptions&, common::SimTime);
service::MapSnapshot SANMAP_WRAP(SYM_BUILD_SNAPSHOT)(
    const topo::Topology& map, const service::SnapshotOptions& options,
    common::SimTime created_at) {
  const trace::Span span("service.build_snapshot");
  return SANMAP_REAL(SYM_BUILD_SNAPSHOT)(map, options, created_at);
}

#define SYM_PUBLISH_IF_CURRENT \
  _ZN6sanmap7service10MapCatalog18publish_if_currentENS0_11MapSnapshotEm
service::MapCatalog::PublishResult SANMAP_REAL(SYM_PUBLISH_IF_CURRENT)(
    service::MapCatalog*, service::MapSnapshot, std::uint64_t);
service::MapCatalog::PublishResult SANMAP_WRAP(SYM_PUBLISH_IF_CURRENT)(
    service::MapCatalog* self, service::MapSnapshot snapshot,
    std::uint64_t based_on_epoch) {
  const trace::Span span("service.publish");
  return SANMAP_REAL(SYM_PUBLISH_IF_CURRENT)(self, std::move(snapshot),
                                             based_on_epoch);
}

#define SYM_PUBLISH _ZN6sanmap7service10MapCatalog7publishENS0_11MapSnapshotE
service::MapCatalog::PublishResult SANMAP_REAL(SYM_PUBLISH)(
    service::MapCatalog*, service::MapSnapshot);
service::MapCatalog::PublishResult SANMAP_WRAP(SYM_PUBLISH)(
    service::MapCatalog* self, service::MapSnapshot snapshot) {
  const trace::Span span("service.publish");
  return SANMAP_REAL(SYM_PUBLISH)(self, std::move(snapshot));
}

#define SYM_ENCODE_SNAPSHOT \
  _ZN6sanmap7service15encode_snapshotB5cxx11ERKNS0_11MapSnapshotE
std::string SANMAP_REAL(SYM_ENCODE_SNAPSHOT)(const service::MapSnapshot&);
std::string SANMAP_WRAP(SYM_ENCODE_SNAPSHOT)(
    const service::MapSnapshot& snapshot) {
  const trace::Span span("service.encode");
  std::string bytes = SANMAP_REAL(SYM_ENCODE_SNAPSHOT)(snapshot);
  trace::count("service.snapshot.bytes", static_cast<double>(bytes.size()));
  return bytes;
}

#define SYM_DECODE_SNAPSHOT \
  _ZN6sanmap7service15decode_snapshotERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE
service::MapSnapshot SANMAP_REAL(SYM_DECODE_SNAPSHOT)(const std::string&);
service::MapSnapshot SANMAP_WRAP(SYM_DECODE_SNAPSHOT)(
    const std::string& bytes) {
  const trace::Span span("service.decode");
  return SANMAP_REAL(SYM_DECODE_SNAPSHOT)(bytes);
}

// `sanmap query` reads its snapshot through this wrapper of decode.
#define SYM_READ_SNAPSHOT_FILE \
  _ZN6sanmap7service18read_snapshot_fileERKNSt7__cxx1112basic_stringIcSt11char_traitsIcESaIcEEE
service::MapSnapshot SANMAP_REAL(SYM_READ_SNAPSHOT_FILE)(const std::string&);
service::MapSnapshot SANMAP_WRAP(SYM_READ_SNAPSHOT_FILE)(
    const std::string& path) {
  const trace::Span span("service.decode");
  return SANMAP_REAL(SYM_READ_SNAPSHOT_FILE)(path);
}

}  // extern "C"
