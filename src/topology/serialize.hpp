// Text serialization of topologies and Graphviz export (the paper's Figures
// 4 and 5 are rendered network maps; to_dot reproduces them).
//
// Format ("sanmap topology v1"):
//   # comment
//   host <name>
//   switch <name>
//   wire <name-a> <port-a> <name-b> <port-b>
//
// Node names may not contain whitespace. Wires reference earlier-declared
// nodes by name.
#pragma once

#include <iosfwd>
#include <string>

#include "topology/topology.hpp"

namespace sanmap::topo {

/// Writes the topology in the v1 text format.
void write_topology(std::ostream& os, const Topology& topo);
std::string to_text(const Topology& topo);

/// Parses the v1 text format. Throws std::runtime_error with a line number
/// on malformed input. With `stop_at_end`, parsing stops (consuming the
/// marker) at a line whose first token is "end", for a topology carried as
/// one section of a larger stream; without it the whole stream is read.
Topology read_topology(std::istream& is, bool stop_at_end = false);
Topology from_text(const std::string& text);

/// Graphviz dot rendering: hosts as boxes, switches as records showing port
/// occupancy — the style of the paper's Figures 4 and 5.
std::string to_dot(const Topology& topo);

/// Parses the dot dialect to_dot emits (hosts as boxes, switches as port
/// records, edges with :pN port references; a host end with no :pN is port
/// 0). This round-trips the repository's paper-figure .dot exports back
/// into a Topology — it is NOT a general Graphviz parser. Throws
/// std::runtime_error with a line number on anything it cannot read.
Topology read_dot(std::istream& is);
Topology dot_from_text(const std::string& text);

}  // namespace sanmap::topo
