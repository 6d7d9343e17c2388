#include "verify/scenario_case.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "topology/serialize.hpp"

namespace sanmap::verify {

const char* to_string(FaultEvent::Kind kind) {
  switch (kind) {
    case FaultEvent::Kind::kLinkDown:
      return "link-down";
    case FaultEvent::Kind::kLinkUp:
      return "link-up";
    case FaultEvent::Kind::kNodeDown:
      return "node-down";
    case FaultEvent::Kind::kNodeUp:
      return "node-up";
    case FaultEvent::Kind::kFlap:
      return "flap";
  }
  return "?";
}

topo::NodeId ScenarioCase::mapper_node() const {
  if (!mapper_host.empty()) {
    const auto host = network.find_host(mapper_host);
    if (!host) {
      throw std::runtime_error("case " + name + ": no host named " +
                               mapper_host);
    }
    return *host;
  }
  if (network.num_hosts() == 0) {
    throw std::runtime_error("case " + name + " has no hosts");
  }
  return network.hosts().front();
}

simnet::FaultSchedule ScenarioCase::schedule() const {
  simnet::FaultSchedule s;
  for (const FaultEvent& e : faults) {
    switch (e.kind) {
      case FaultEvent::Kind::kLinkDown:
        s.link_down(e.wire, e.at);
        break;
      case FaultEvent::Kind::kLinkUp:
        s.link_up(e.wire, e.at);
        break;
      case FaultEvent::Kind::kNodeDown:
        s.node_down(e.node, e.at);
        break;
      case FaultEvent::Kind::kNodeUp:
        s.node_up(e.node, e.at);
        break;
      case FaultEvent::Kind::kFlap:
        s.flapping_link(e.wire, e.period, e.duty, e.at);
        break;
    }
  }
  return s;
}

bool ScenarioCase::has_flap() const {
  for (const FaultEvent& e : faults) {
    if (e.kind == FaultEvent::Kind::kFlap) {
      return true;
    }
  }
  return false;
}

std::size_t ScenarioCase::drop_dangling_faults() {
  std::vector<FaultEvent> kept;
  kept.reserve(faults.size());
  for (const FaultEvent& e : faults) {
    const bool is_node_event = e.kind == FaultEvent::Kind::kNodeDown ||
                               e.kind == FaultEvent::Kind::kNodeUp;
    const bool alive = is_node_event ? network.node_alive(e.node)
                                     : network.wire_alive(e.wire);
    if (alive) {
      kept.push_back(e);
    }
  }
  const std::size_t dropped = faults.size() - kept.size();
  faults = std::move(kept);
  return dropped;
}

void write_case(std::ostream& os, const ScenarioCase& c) {
  os << "# sanmap case v1\n";
  os << "case " << c.name << '\n';
  os << "collision " << simnet::to_string(c.collision) << '\n';
  if (!c.mapper_host.empty()) {
    os << "mapper " << c.mapper_host << '\n';
  }
  os << "topology\n";
  topo::write_topology(os, c.network);
  os << "end\n";
  const auto endpoints = [&](topo::WireId w) {
    const topo::Wire& wire = c.network.wire(w);
    std::ostringstream e;
    e << c.network.name(wire.a.node) << ' ' << wire.a.port << ' '
      << c.network.name(wire.b.node) << ' ' << wire.b.port;
    return e.str();
  };
  for (const FaultEvent& e : c.faults) {
    os << "fault " << to_string(e.kind) << ' ';
    switch (e.kind) {
      case FaultEvent::Kind::kLinkDown:
      case FaultEvent::Kind::kLinkUp:
        os << endpoints(e.wire) << ' ' << e.at.to_ns();
        break;
      case FaultEvent::Kind::kNodeDown:
      case FaultEvent::Kind::kNodeUp:
        os << c.network.name(e.node) << ' ' << e.at.to_ns();
        break;
      case FaultEvent::Kind::kFlap:
        os << endpoints(e.wire) << ' ' << e.period.to_ns() << ' ' << e.duty
           << ' ' << e.at.to_ns();
        break;
    }
    os << '\n';
  }
}

std::string to_text(const ScenarioCase& c) {
  std::ostringstream oss;
  write_case(oss, c);
  return oss.str();
}

namespace {

simnet::CollisionModel parse_collision(const std::string& word) {
  if (word == "cut-through") {
    return simnet::CollisionModel::kCutThrough;
  }
  if (word == "circuit") {
    return simnet::CollisionModel::kCircuit;
  }
  if (word == "packet") {
    return simnet::CollisionModel::kPacket;
  }
  throw std::runtime_error("unknown collision model: " + word);
}

}  // namespace

ScenarioCase read_case(std::istream& is) {
  ScenarioCase c;
  bool saw_topology = false;
  std::string line;
  int line_number = 0;
  const auto fail = [&](const std::string& message) {
    throw std::runtime_error("case parse error at line " +
                             std::to_string(line_number) + ": " + message);
  };
  // Resolves a wire by its serialized endpoint reference.
  const auto find_wire = [&](const std::string& name_a, topo::Port port_a,
                             const std::string& name_b, topo::Port port_b) {
    for (const topo::WireId w : c.network.wires()) {
      const topo::Wire& wire = c.network.wire(w);
      const auto matches = [&](const topo::PortRef& end,
                               const std::string& node_name, topo::Port port) {
        return c.network.name(end.node) == node_name && end.port == port;
      };
      if ((matches(wire.a, name_a, port_a) && matches(wire.b, name_b, port_b)) ||
          (matches(wire.a, name_b, port_b) && matches(wire.b, name_a, port_a))) {
        return w;
      }
    }
    fail("no wire " + name_a + ":" + std::to_string(port_a) + " -- " + name_b +
         ":" + std::to_string(port_b));
    return topo::kInvalidWire;  // unreachable
  };
  const auto find_node = [&](const std::string& node_name) {
    for (const topo::NodeId n : c.network.nodes()) {
      if (c.network.name(n) == node_name) {
        return n;
      }
    }
    fail("no node named " + node_name);
    return topo::kInvalidNode;  // unreachable
  };

  while (std::getline(is, line)) {
    ++line_number;
    std::istringstream ls(line);
    std::string keyword;
    if (!(ls >> keyword) || keyword[0] == '#') {
      continue;
    }
    if (keyword == "case") {
      if (!(ls >> c.name)) {
        fail("expected a case name");
      }
    } else if (keyword == "collision") {
      std::string word;
      if (!(ls >> word)) {
        fail("expected a collision model");
      }
      try {
        c.collision = parse_collision(word);
      } catch (const std::runtime_error& e) {
        fail(e.what());
      }
    } else if (keyword == "mapper") {
      if (!(ls >> c.mapper_host)) {
        fail("expected a mapper host name");
      }
    } else if (keyword == "topology") {
      if (saw_topology) {
        fail("duplicate topology section");
      }
      try {
        c.network = topo::read_topology(is, /*stop_at_end=*/true);
      } catch (const std::runtime_error& e) {
        // The inner parser reports its own line numbers relative to the
        // section start; forward its message as-is.
        throw std::runtime_error(std::string("in topology section: ") +
                                 e.what());
      }
      saw_topology = true;
    } else if (keyword == "fault") {
      if (!saw_topology) {
        fail("fault before topology section");
      }
      std::string kind;
      if (!(ls >> kind)) {
        fail("expected a fault kind");
      }
      FaultEvent e;
      std::int64_t at_ns = 0;
      if (kind == "link-down" || kind == "link-up" || kind == "flap") {
        std::string name_a;
        std::string name_b;
        topo::Port port_a = 0;
        topo::Port port_b = 0;
        if (!(ls >> name_a >> port_a >> name_b >> port_b)) {
          fail("expected: <name-a> <port-a> <name-b> <port-b> ...");
        }
        e.wire = find_wire(name_a, port_a, name_b, port_b);
        if (kind == "flap") {
          std::int64_t period_ns = 0;
          if (!(ls >> period_ns >> e.duty >> at_ns)) {
            fail("expected: flap ... <period-ns> <duty> <start-ns>");
          }
          // The schedule's own preconditions, refused here in the case's
          // words: `sanmap serve` plays these lines.
          if (period_ns <= 0) {
            fail("flap period must be positive");
          }
          if (!(e.duty >= 0.0 && e.duty <= 1.0)) {
            fail("flap duty must be in [0, 1]");
          }
          e.kind = FaultEvent::Kind::kFlap;
          e.period = common::SimTime::ns(period_ns);
        } else {
          if (!(ls >> at_ns)) {
            fail("expected an event instant in ns");
          }
          e.kind = kind == "link-down" ? FaultEvent::Kind::kLinkDown
                                       : FaultEvent::Kind::kLinkUp;
        }
      } else if (kind == "node-down" || kind == "node-up") {
        std::string node_name;
        if (!(ls >> node_name >> at_ns)) {
          fail("expected: <name> <at-ns>");
        }
        e.node = find_node(node_name);
        e.kind = kind == "node-down" ? FaultEvent::Kind::kNodeDown
                                     : FaultEvent::Kind::kNodeUp;
      } else {
        fail("unknown fault kind: " + kind);
      }
      e.at = common::SimTime::ns(at_ns);
      c.faults.push_back(e);
    } else {
      fail("unknown keyword: " + keyword);
    }
  }
  if (!saw_topology) {
    throw std::runtime_error("case has no topology section");
  }
  return c;
}

ScenarioCase case_from_text(const std::string& text) {
  std::istringstream iss(text);
  return read_case(iss);
}

void write_case_file(const std::string& path, const ScenarioCase& c) {
  std::ofstream out(path);
  if (!out) {
    throw std::runtime_error("cannot open " + path + " for writing");
  }
  write_case(out, c);
  if (!out) {
    throw std::runtime_error("write failed: " + path);
  }
}

ScenarioCase read_case_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw std::runtime_error("cannot open " + path);
  }
  return read_case(in);
}

}  // namespace sanmap::verify
