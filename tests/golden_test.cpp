// Differential goldens for the dense-index hot-path rewrite.
//
// Every checked-in corpus case plus both paper figures is mapped with the
// production BerkeleyMapper and digested into a text record pinning
// everything an observer could see: the probe counters, the exact virtual
// clock, the model statistics, the full probe transcript (route by route),
// and the extracted map serialized as "sanmap topology v1". The digests are
// compared byte-for-byte against golden files recorded *before* the flat
// adjacency-array rewrites landed, so any behavioral drift — one extra
// probe, a reordered transcript line, a different port assignment in the
// map — fails loudly.
//
// The same corpus also checks the probe engine's switch-probe routes,
// which it builds in a reused buffer, against their §2.3 shape.
//
// Regenerating (only legitimate when a PR intentionally changes mapper
// behavior, never for a "pure performance" change):
//   SANMAP_UPDATE_GOLDEN=1 ./build/tests/golden_test
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mapper/berkeley_mapper.hpp"
#include "mapper/id_mapper.hpp"
#include "probe/probe_engine.hpp"
#include "simnet/network.hpp"
#include "simnet/route.hpp"
#include "topology/algorithms.hpp"
#include "topology/generators.hpp"
#include "topology/serialize.hpp"
#include "verify/scenario_case.hpp"

namespace sanmap {
namespace {

namespace fs = std::filesystem;

/// Same depth policy as the oracle stack: the §3.1.4 bound when the paper's
/// standing assumptions hold, else a generous structural bound.
int depth_for(const topo::Topology& t, topo::NodeId mapper) {
  if (t.num_switches() >= 1 && t.num_hosts() >= 2 && topo::connected(t)) {
    return topo::search_depth(t, mapper);
  }
  return std::max<int>(1, static_cast<int>(2 * t.num_wires() + 3));
}

/// Runs one full mapping session and digests every observable output.
std::string digest(const verify::ScenarioCase& c, int window) {
  simnet::Network net(c.network, c.collision);
  const simnet::FaultSchedule schedule = c.schedule();
  net.attach_faults(&schedule);

  probe::ProbeOptions options;
  options.record_transcript = true;
  const topo::NodeId mapper_host = c.mapper_node();
  probe::ProbeEngine engine(net, mapper_host, options);

  mapper::MapperConfig config;
  config.search_depth = depth_for(c.network, mapper_host);
  config.pipeline_window = window;
  const mapper::MapResult result = mapper::BerkeleyMapper(engine, config).run();

  std::ostringstream os;
  os << "# sanmap golden v1\n";
  os << "case " << c.name << " window " << window << "\n";
  const probe::ProbeCounters& pc = result.probes;
  os << "counters " << pc.host_probes << ' ' << pc.host_hits << ' '
     << pc.switch_probes << ' ' << pc.switch_hits << ' ' << pc.wild_probes
     << ' ' << pc.wild_hits << "\n";
  os << "elapsed_ns " << result.elapsed.to_ns() << "\n";
  os << "explorations " << result.explorations << " merges " << result.merges
     << " pruned " << result.pruned << " peak " << result.peak_model_vertices
     << "\n";
  os << "transcript\n";
  engine.write_transcript(os);
  os << "end transcript\n";
  os << "map\n" << topo::to_text(result.map) << "end map\n";
  return os.str();
}

fs::path golden_dir() { return fs::path(SANMAP_GOLDEN_DIR); }

bool update_mode() { return std::getenv("SANMAP_UPDATE_GOLDEN") != nullptr; }

/// Compares `actual` against the named golden file, or rewrites the file in
/// update mode.
void check_golden(const std::string& golden_name, const std::string& actual) {
  const fs::path path = golden_dir() / (golden_name + ".golden");
  if (update_mode()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good())
      << "missing golden file " << path
      << " — record it with SANMAP_UPDATE_GOLDEN=1 on a known-good build";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string expected = buffer.str();
  if (expected == actual) {
    return;
  }
  // Pinpoint the first diverging line for a readable failure.
  std::istringstream want(expected);
  std::istringstream got(actual);
  std::string want_line;
  std::string got_line;
  int line_no = 0;
  while (true) {
    const bool have_want = static_cast<bool>(std::getline(want, want_line));
    const bool have_got = static_cast<bool>(std::getline(got, got_line));
    ++line_no;
    if (!have_want && !have_got) {
      break;
    }
    if (!have_want || !have_got || want_line != got_line) {
      FAIL() << golden_name << ": first divergence at line " << line_no
             << "\n  golden: " << (have_want ? want_line : "<eof>")
             << "\n  actual: " << (have_got ? got_line : "<eof>");
    }
  }
  FAIL() << golden_name << ": digests differ";  // unreachable belt-and-braces
}

TEST(Golden, CorpusCasesAreBitIdenticalToRecordings) {
  std::vector<fs::path> cases;
  for (const auto& entry : fs::directory_iterator(fs::path(SANMAP_CORPUS_DIR))) {
    if (entry.path().extension() == ".sancase") {
      cases.push_back(entry.path());
    }
  }
  std::sort(cases.begin(), cases.end());
  ASSERT_FALSE(cases.empty());
  for (const fs::path& path : cases) {
    SCOPED_TRACE(path.filename().string());
    const verify::ScenarioCase c = verify::read_case_file(path.string());
    check_golden(path.stem().string() + "-serial", digest(c, /*window=*/1));
  }
}

TEST(Golden, Figure4SubclusterSerial) {
  verify::ScenarioCase c;
  c.name = "fig4-subcluster-c";
  c.network = topo::now_subcluster(topo::Subcluster::kC, "C");
  c.mapper_host = "C.util";
  check_golden("fig4-serial", digest(c, /*window=*/1));
}

TEST(Golden, Figure5NowClusterSerial) {
  verify::ScenarioCase c;
  c.name = "fig5-now100";
  c.network = topo::now_cluster();
  c.mapper_host = "C.util";
  check_golden("fig5-serial", digest(c, /*window=*/1));
}

TEST(Golden, Figure4SubclusterPipelined) {
  // Window 8 exercises the batched-frontier path (ProbePipeline), which the
  // dense-index rewrite must leave equally untouched.
  verify::ScenarioCase c;
  c.name = "fig4-subcluster-c";
  c.network = topo::now_subcluster(topo::Subcluster::kC, "C");
  c.mapper_host = "C.util";
  check_golden("fig4-window8", digest(c, /*window=*/8));
}

TEST(Golden, Figure5NowClusterPipelined) {
  verify::ScenarioCase c;
  c.name = "fig5-now100";
  c.network = topo::now_cluster();
  c.mapper_host = "C.util";
  check_golden("fig5-window8", digest(c, /*window=*/8));
}

TEST(ProbeEngine, SwitchProbeRoutesAreLoopbacksOfTheirPrefix) {
  // The engine builds each switch probe's loopback route in a buffer it
  // reuses. Every recorded 's' and 'i' route must still be the §2.3
  // loopback of its prefix, replay against the fabric, and leave the probe
  // counters and clock exactly as an unrecorded session does.
  const verify::ScenarioCase c = verify::read_case_file(
      (fs::path(SANMAP_CORPUS_DIR) / "fat-tree-2level.sancase").string());
  const topo::NodeId mapper_host = c.mapper_node();
  simnet::HardwareExtensions extensions;
  extensions.self_identifying_switches = true;
  const auto check_routes = [](const std::vector<probe::TranscriptEntry>& t,
                               char category) {
    std::size_t seen = 0;
    for (const probe::TranscriptEntry& entry : t) {
      if (entry.category != category) {
        continue;
      }
      ++seen;
      // a1..ak 0 -ak..-a1: the pivot in the middle, each return turn the
      // negation of its outbound mirror.
      ASSERT_EQ(entry.route.size() % 2, 1u);
      const std::size_t k = entry.route.size() / 2;
      EXPECT_EQ(entry.route[k], 0);
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_EQ(entry.route[k + 1 + i], -entry.route[k - 1 - i]);
      }
      const simnet::Route prefix(
          entry.route.begin(),
          entry.route.begin() + static_cast<std::ptrdiff_t>(k));
      EXPECT_EQ(entry.route, simnet::loopback_probe(prefix));
    }
    EXPECT_GT(seen, 0u) << category;
  };

  mapper::MapperConfig config;
  config.search_depth = depth_for(c.network, mapper_host);
  std::vector<mapper::MapResult> berkeley;
  std::vector<mapper::IdMapResult> identified;
  for (const bool record : {true, false}) {
    probe::ProbeOptions options;
    options.record_transcript = record;
    simnet::Network net(c.network, c.collision, simnet::CostModel{},
                        simnet::FaultModel{}, 1, extensions);
    probe::ProbeEngine engine(net, mapper_host, options);
    berkeley.push_back(mapper::BerkeleyMapper(engine, config).run());
    if (record) {
      check_routes(engine.transcript(), 's');
      simnet::Network replay(c.network, c.collision);
      EXPECT_TRUE(
          probe::transcript_replays(engine.transcript(), replay, mapper_host));
    }
    probe::ProbeEngine id_engine(net, mapper_host, options);
    identified.push_back(mapper::IdMapper(id_engine).run());
    if (record) {
      check_routes(id_engine.transcript(), 'i');
      EXPECT_TRUE(probe::transcript_replays(id_engine.transcript(), net,
                                            mapper_host));
    }
  }
  EXPECT_EQ(berkeley[0].probes, berkeley[1].probes);
  EXPECT_EQ(berkeley[0].elapsed, berkeley[1].elapsed);
  EXPECT_EQ(identified[0].probes, identified[1].probes);
  EXPECT_EQ(identified[0].elapsed, identified[1].elapsed);
}

}  // namespace
}  // namespace sanmap
