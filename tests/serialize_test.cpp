// Tests for the text serialization format and Graphviz export.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

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

TEST(Serialize, PortConflictReportsLineNumber) {
  try {
    from_text("host a\nhost b\nswitch s\nwire a 0 s 0\nwire b 0 s 0\n");
    FAIL() << "expected parse error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 5"), std::string::npos);
  }
}

/// Parses `text` with `parse` and expects a runtime_error whose message
/// begins with "<what> parse error at line <line>:".
template <typename Parse>
void expect_refused_at(Parse parse, const std::string& text,
                       const std::string& what, int line) {
  try {
    parse(text);
    ADD_FAILURE() << "expected a parse error for:\n" << text;
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()).rfind(what + " parse error at line " +
                                              std::to_string(line) + ":",
                                          0),
              0u)
        << e.what();
  }
}

TEST(Serialize, WiresTheModelForbidsAreRefusedWithTheirLine) {
  // The Topology refuses each of these wires; the parser must say where.
  for (const char* wire : {"wire t 8 s 1",     // switch ports are 0..7
                           "wire a 1 t 0",     // a host has port 0 only
                           "wire t -1 s 1",    // no negative ports
                           "wire t 0 a 0",     // a second wire on the host
                           "wire s 3 s 3"}) {  // a port wired to itself
    expect_refused_at(from_text,
                      "host a\nswitch s\nswitch t\nwire a 0 s 0\n" +
                          std::string(wire) + "\n",
                      "topology", 5);
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

void expect_dot_refused_at(const std::string& text, int line) {
  expect_refused_at(dot_from_text, text, "dot", line);
}

/// A host n0 and a switch n1 in sanmap's dot dialect, then `edges`.
std::string dot_with(const std::string& edges) {
  return "graph sanmap {\n"
         "  n0 [shape=box, label=\"a\"];\n"
         "  n1 [shape=record, label=\"s | <p0> 0 | <p1> 1\"];\n" +
         edges + "}\n";
}

TEST(Dot, OutOfRangePortsAreRefusedNotWrapped) {
  // 4294967298 is 2^32 + 2: a narrowing cast read it as port 2.
  for (const char* port : {"p8", "p4294967298", "p99999999999999999999"}) {
    expect_dot_refused_at(dot_with("  n0 -- n1:" + std::string(port) + ";\n"),
                          4);
  }
}

TEST(Dot, MalformedPortIsRefused) {
  for (const char* port : {"px", "p", "p-1", "p+1", "p4x", "q4"}) {
    expect_dot_refused_at(dot_with("  n0 -- n1:" + std::string(port) + ";\n"),
                          4);
  }
}

TEST(Dot, DuplicateHostLabelIsRefused) {
  expect_dot_refused_at(dot_with("  n2 [shape=box, label=\"a\"];\n"), 4);
}

}  // namespace
}  // namespace sanmap::topo
