// Tests for the text serialization format and Graphviz export.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "topology/generators.hpp"
#include "topology/isomorphism.hpp"
#include "topology/serialize.hpp"

namespace sanmap::topo {
namespace {

TEST(Serialize, RoundTripTiny) {
  Topology t;
  const NodeId h = t.add_host("alpha");
  const NodeId s = t.add_switch("sw");
  t.connect(h, 0, s, 5);
  const Topology u = from_text(to_text(t));
  EXPECT_TRUE(t.structurally_equal(u));
}

TEST(Serialize, RoundTripNowCluster) {
  const Topology t = now_cluster();
  const Topology u = from_text(to_text(t));
  EXPECT_EQ(u.num_hosts(), t.num_hosts());
  EXPECT_EQ(u.num_switches(), t.num_switches());
  EXPECT_EQ(u.num_wires(), t.num_wires());
  EXPECT_TRUE(t.structurally_equal(u));
}

TEST(Serialize, RoundTripRandom) {
  common::Rng rng(77);
  for (int i = 0; i < 5; ++i) {
    const Topology t = random_irregular(12, 10, 6, rng);
    EXPECT_TRUE(t.structurally_equal(from_text(to_text(t))));
  }
}

TEST(Serialize, CommentsAndBlankLinesIgnored) {
  const Topology t = from_text(
      "# a comment\n"
      "\n"
      "host a\n"
      "switch s\n"
      "# another\n"
      "wire a 0 s 3\n");
  EXPECT_EQ(t.num_hosts(), 1u);
  EXPECT_EQ(t.num_wires(), 1u);
}

TEST(Serialize, UnknownKeywordFails) {
  EXPECT_THROW(from_text("frobnicate x\n"), std::runtime_error);
}

TEST(Serialize, UnknownNodeInWireFails) {
  EXPECT_THROW(from_text("host a\nwire a 0 ghost 1\n"), std::runtime_error);
}

TEST(Serialize, DuplicateNameFails) {
  EXPECT_THROW(from_text("host a\nswitch a\n"), std::runtime_error);
}

TEST(Serialize, MalformedWireFails) {
  EXPECT_THROW(from_text("host a\nswitch s\nwire a 0 s\n"),
               std::runtime_error);
}

/// Parses `text` with `parse` and expects a runtime_error saying exactly
/// `message`.
template <typename Parse>
void expect_refusal(Parse parse, const std::string& text,
                    const std::string& message) {
  try {
    parse(text);
    ADD_FAILURE() << "expected a parse error for:\n" << text;
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), message);
  }
}

TEST(Serialize, WiresTheModelForbidsAreRefusedWithTheirLine) {
  // The reader checks each wire before the Topology sees it, so it says
  // where and why in its own words: no internal check, no source path.
  for (const auto& [wire, message] :
       std::vector<std::pair<std::string, std::string>>{
           {"wire t 8 s 1", "port 8 out of range on t (ports 0..7)"},
           {"wire a 1 t 0", "port 1 out of range on a (ports 0..0)"},
           {"wire t -1 s 1", "port -1 out of range on t (ports 0..7)"},
           {"wire t 0 a 0", "port 0 of a is already wired"},
           {"wire t 1 s 0", "port 0 of s is already wired"},
           {"wire s 3 s 3", "wire connects port 3 of s to itself"}}) {
    expect_refusal(from_text,
                   "host a\nswitch s\nswitch t\nwire a 0 s 0\n" + wire + "\n",
                   "topology parse error at line 5: " + message);
  }
}

TEST(Serialize, SelfLoopRoundTrips) {
  Topology t;
  const NodeId s = t.add_switch("s");
  t.connect(s, 1, s, 6);
  EXPECT_TRUE(t.structurally_equal(from_text(to_text(t))));
}

TEST(Dot, ContainsNodesAndEdges) {
  Topology t;
  const NodeId h = t.add_host("myhost");
  const NodeId s = t.add_switch("mysw");
  t.connect(h, 0, s, 2);
  const std::string dot = to_dot(t);
  EXPECT_NE(dot.find("graph sanmap"), std::string::npos);
  EXPECT_NE(dot.find("myhost"), std::string::npos);
  EXPECT_NE(dot.find("mysw"), std::string::npos);
  EXPECT_NE(dot.find("--"), std::string::npos);
  EXPECT_NE(dot.find(":p2"), std::string::npos);  // switch port anchor
}

TEST(Dot, HostsHaveNoPortAnchors) {
  Topology t;
  const NodeId h = t.add_host("hh");
  const NodeId s = t.add_switch("ss");
  t.connect(h, 0, s, 0);
  const std::string dot = to_dot(t);
  // The host endpoint is plain nN, not nN:pK.
  EXPECT_EQ(dot.find("n0:p"), std::string::npos);
}

TEST(Dot, ReadDotRoundTripsOurOwnDialect) {
  // sanmap lint accepts the repository's paper-figure .dot exports; the
  // reader must reconstruct the exact structure to_dot rendered.
  const Topology t = now_cluster();
  const Topology u = dot_from_text(to_dot(t));
  EXPECT_EQ(u.num_hosts(), t.num_hosts());
  EXPECT_EQ(u.num_switches(), t.num_switches());
  EXPECT_EQ(u.num_wires(), t.num_wires());
  // to_dot renders hosts before switches, so node ids are renumbered:
  // the round trip preserves the graph, not the id assignment.
  EXPECT_TRUE(isomorphic(t, u));
}

TEST(Dot, ReadDotRejectsForeignStatementsWithALineNumber) {
  try {
    dot_from_text("graph g {\n  n0 -> n1;\n}\n");  // digraph edge syntax
    FAIL() << "expected a parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << e.what();
  }
}

/// A host n0 and a switch n1 in sanmap's dot dialect, then `edges`, must be
/// refused at `line` saying `message`.
void expect_dot_refused(const std::string& edges, int line,
                        const std::string& message) {
  expect_refusal(dot_from_text,
                 "graph sanmap {\n"
                 "  n0 [shape=box, label=\"a\"];\n"
                 "  n1 [shape=record, label=\"s | <p0> 0 | <p1> 1\"];\n" +
                     edges + "}\n",
                 "dot parse error at line " + std::to_string(line) + ": " +
                     message);
}

TEST(Dot, OutOfRangePortsAreRefusedNotWrapped) {
  expect_dot_refused("  n0 -- n1:p8;\n", 4,
                     "port 8 out of range on s (ports 0..7)");
  // 4294967298 is 2^32 + 2: a narrowing cast read it as port 2.
  for (const std::string port : {"p4294967298", "p99999999999999999999"}) {
    expect_dot_refused("  n0 -- n1:" + port + ";\n", 4,
                       "port number out of range in " + port);
  }
}

TEST(Dot, MalformedPortIsRefused) {
  for (const std::string port : {"px", "p", "p-1", "p+1", "p4x", "q4"}) {
    expect_dot_refused("  n0 -- n1:" + port + ";\n", 4,
                       "malformed port reference " + port);
  }
}

TEST(Dot, WiresTheModelForbidsAreRefusedWithTheirLine) {
  expect_dot_refused("  n1:p1 -- n1:p1;\n", 4,
                     "wire connects port 1 of s to itself");
  expect_dot_refused("  n0 -- n1:p0;\n  n1:p1 -- n1:p0;\n", 5,
                     "port 0 of s is already wired");
}

TEST(Dot, DuplicateOrEmptyHostLabelIsRefused) {
  expect_dot_refused("  n2 [shape=box, label=\"a\"];\n", 4,
                     "duplicate host name: a");
  // An empty label would get the Topology's generated name, which another
  // label may already hold.
  expect_dot_refused("  n2 [shape=box, label=\"\"];\n", 4,
                     "node n2 has an empty label");
}

}  // namespace
}  // namespace sanmap::topo
