#include "topology/serialize.hpp"

#include <algorithm>
#include <charconv>
#include <map>
#include <sstream>
#include <stdexcept>


namespace sanmap::topo {

namespace {

/// Why connect(a, b) would refuse the wire, or empty when it would not. The
/// readers check before they mutate, so a bad file is refused in their own
/// line-numbered words rather than with the Topology's internal check.
std::string wire_refusal(const Topology& topo, const PortRef& a,
                         const PortRef& b) {
  for (const PortRef& end : {a, b}) {
    if (end.port < 0 || end.port >= topo.port_count(end.node)) {
      return "port " + std::to_string(end.port) + " out of range on " +
             topo.name(end.node) + " (ports 0.." +
             std::to_string(topo.port_count(end.node) - 1) + ")";
    }
  }
  if (a.node == b.node && a.port == b.port) {
    return "wire connects port " + std::to_string(a.port) + " of " +
           topo.name(a.node) + " to itself";
  }
  for (const PortRef& end : {a, b}) {
    if (topo.wire_at(end.node, end.port)) {
      return "port " + std::to_string(end.port) + " of " +
             topo.name(end.node) + " is already wired";
    }
  }
  return {};
}

}  // namespace

void write_topology(std::ostream& os, const Topology& topo) {
  os << "# sanmap topology v1\n";
  // Nodes are written in id order so that parsing a dense topology assigns
  // the same ids back (read(write(t)) is structurally equal to t.compacted()).
  for (const NodeId n : topo.nodes()) {
    os << (topo.is_host(n) ? "host " : "switch ") << topo.name(n) << '\n';
  }
  for (const WireId w : topo.wires()) {
    const Wire& wire = topo.wire(w);
    os << "wire " << topo.name(wire.a.node) << ' ' << wire.a.port << ' '
       << topo.name(wire.b.node) << ' ' << wire.b.port << '\n';
  }
}

std::string to_text(const Topology& topo) {
  std::ostringstream oss;
  write_topology(oss, topo);
  return oss.str();
}

Topology read_topology(std::istream& is, bool stop_at_end) {
  Topology topo;
  std::map<std::string, NodeId> by_name;
  std::string line;
  int line_number = 0;
  const auto fail = [&](const std::string& message) {
    throw std::runtime_error("topology parse error at line " +
                             std::to_string(line_number) + ": " + message);
  };
  while (std::getline(is, line)) {
    ++line_number;
    std::istringstream ls(line);
    std::string keyword;
    if (!(ls >> keyword) || keyword[0] == '#') {
      continue;
    }
    if (stop_at_end && keyword == "end") {
      break;
    }
    if (keyword == "host" || keyword == "switch") {
      std::string node_name;
      if (!(ls >> node_name)) {
        fail("expected a node name");
      }
      if (by_name.contains(node_name)) {
        fail("duplicate node name: " + node_name);
      }
      const NodeId id = keyword == "host" ? topo.add_host(node_name)
                                          : topo.add_switch(node_name);
      by_name.emplace(node_name, id);
    } else if (keyword == "wire") {
      std::string name_a;
      std::string name_b;
      Port port_a = 0;
      Port port_b = 0;
      if (!(ls >> name_a >> port_a >> name_b >> port_b)) {
        fail("expected: wire <name> <port> <name> <port>");
      }
      const auto a = by_name.find(name_a);
      const auto b = by_name.find(name_b);
      if (a == by_name.end()) {
        fail("unknown node: " + name_a);
      }
      if (b == by_name.end()) {
        fail("unknown node: " + name_b);
      }
      const PortRef end_a{a->second, port_a};
      const PortRef end_b{b->second, port_b};
      if (const std::string refusal = wire_refusal(topo, end_a, end_b);
          !refusal.empty()) {
        fail(refusal);
      }
      topo.connect(end_a.node, end_a.port, end_b.node, end_b.port);
    } else {
      fail("unknown keyword: " + keyword);
    }
  }
  return topo;
}

Topology from_text(const std::string& text) {
  std::istringstream iss(text);
  return read_topology(iss);
}

std::string to_dot(const Topology& topo) {
  std::ostringstream oss;
  oss << "graph sanmap {\n  rankdir=TB;\n";
  for (const NodeId n : topo.hosts()) {
    oss << "  n" << n << " [shape=box, label=\"" << topo.name(n) << "\"];\n";
  }
  for (const NodeId n : topo.switches()) {
    // Record node with one field per port, mirroring the paper's switch
    // drawings ("Switch 17 | 0 | 1 | ...").
    oss << "  n" << n << " [shape=record, label=\"" << topo.name(n);
    for (Port p = 0; p < topo.port_count(n); ++p) {
      oss << " | <p" << p << "> " << p;
    }
    oss << "\"];\n";
  }
  for (const WireId w : topo.wires()) {
    const Wire& wire = topo.wire(w);
    const auto endpoint = [&](const PortRef& end) {
      std::ostringstream e;
      e << 'n' << end.node;
      if (topo.is_switch(end.node)) {
        e << ":p" << end.port;
      }
      return e.str();
    };
    oss << "  " << endpoint(wire.a) << " -- " << endpoint(wire.b) << ";\n";
  }
  oss << "}\n";
  return oss.str();
}

Topology read_dot(std::istream& is) {
  Topology topo;
  std::map<std::string, NodeId> by_dot_id;
  std::string line;
  int line_number = 0;
  const auto fail = [&](const std::string& message) {
    throw std::runtime_error("dot parse error at line " +
                             std::to_string(line_number) + ": " + message);
  };
  const auto trim = [](std::string s) {
    const auto first = s.find_first_not_of(" \t;");
    const auto last = s.find_last_not_of(" \t;");
    return first == std::string::npos ? std::string()
                                      : s.substr(first, last - first + 1);
  };
  // One endpoint: "n12" (host, port 0) or "n12:p4" (switch port 4).
  const auto parse_end = [&](const std::string& text) {
    const auto colon = text.find(':');
    const std::string id = text.substr(0, colon);
    const auto node = by_dot_id.find(id);
    if (node == by_dot_id.end()) {
      fail("edge references undeclared node " + id);
    }
    Port port = 0;
    if (colon != std::string::npos) {
      // "p" then digits, within Port's range: the Topology range-checks
      // what it is given, so nothing may wrap on the way there.
      const std::string ref = text.substr(colon + 1);
      if (ref.size() < 2 || ref[0] != 'p' || ref[1] < '0' || ref[1] > '9') {
        fail("malformed port reference " + ref);
      }
      const char* const end = ref.data() + ref.size();
      const auto [stop, error] = std::from_chars(ref.data() + 1, end, port);
      if (error == std::errc::result_out_of_range) {
        fail("port number out of range in " + ref);
      }
      if (stop != end) {
        fail("malformed port reference " + ref);
      }
    }
    return PortRef{node->second, port};
  };

  while (std::getline(is, line)) {
    ++line_number;
    const std::string body = trim(line);
    if (body.empty() || body == "}" || body.rfind("graph", 0) == 0 ||
        body.rfind("rankdir", 0) == 0) {
      continue;
    }
    if (const auto dash = body.find(" -- "); dash != std::string::npos) {
      const PortRef a = parse_end(trim(body.substr(0, dash)));
      const PortRef b = parse_end(trim(body.substr(dash + 4)));
      if (const std::string refusal = wire_refusal(topo, a, b);
          !refusal.empty()) {
        fail(refusal);
      }
      topo.connect(a.node, a.port, b.node, b.port);
      continue;
    }
    const auto bracket = body.find('[');
    const auto label_at = body.find("label=\"");
    if (bracket == std::string::npos || label_at == std::string::npos) {
      fail("unrecognized statement: " + body);
    }
    const std::string dot_id = trim(body.substr(0, bracket));
    const auto label_end = body.find('"', label_at + 7);
    if (label_end == std::string::npos) {
      fail("unterminated label");
    }
    std::string label = body.substr(label_at + 7, label_end - label_at - 7);
    const bool is_box = body.find("shape=box") != std::string::npos;
    if (!is_box) {
      // Record labels are "name | <p0> 0 | ..."; the name is field one.
      label = trim(label.substr(0, label.find('|')));
    }
    if (by_dot_id.contains(dot_id)) {
      fail("duplicate node " + dot_id);
    }
    if (label.empty()) {
      fail("node " + dot_id + " has an empty label");
    }
    if (is_box && topo.find_host(label)) {
      fail("duplicate host name: " + label);
    }
    by_dot_id.emplace(dot_id, is_box ? topo.add_host(label)
                                     : topo.add_switch(label));
  }
  return topo;
}

Topology dot_from_text(const std::string& text) {
  std::istringstream iss(text);
  return read_dot(iss);
}

}  // namespace sanmap::topo
