#include "verify/mutate.hpp"

#include <algorithm>
#include <unordered_set>

#include "topology/generators.hpp"

namespace sanmap::verify {

namespace {

using topo::NodeId;
using topo::Topology;
using topo::WireId;

/// Upper bound on nodes added by one graft mutation.
constexpr int kMaxGraftNodes = 10;
/// Fault instants are drawn uniformly from [0, kFaultHorizon].
constexpr common::SimTime kFaultHorizon = common::SimTime::ms(20);

/// A node name unused by any live node of the case ("<prefix>0", ...).
/// Explicit names everywhere: auto-generated "sN" names can collide after a
/// serialize/compact round trip, and case files require unique names.
std::string fresh_name(const Topology& t, const std::string& prefix) {
  std::unordered_set<std::string> taken;
  for (const NodeId n : t.nodes()) {
    taken.insert(t.name(n));
  }
  for (int i = 0;; ++i) {
    std::string candidate = prefix + std::to_string(i);
    if (!taken.contains(candidate)) {
      return candidate;
    }
  }
}

std::vector<NodeId> nodes_with_free_port(const Topology& t,
                                         bool switches_only) {
  std::vector<NodeId> out;
  for (const NodeId n : switches_only ? t.switches() : t.nodes()) {
    if (t.free_port(n)) {
      out.push_back(n);
    }
  }
  return out;
}

std::string grow_host(ScenarioCase& c, common::Rng& rng) {
  const auto anchors = nodes_with_free_port(c.network, /*switches_only=*/true);
  if (anchors.empty()) {
    return "";
  }
  const NodeId anchor = rng.pick(anchors);
  const NodeId h = c.network.add_host(fresh_name(c.network, "fh"));
  c.network.connect_any(h, anchor);
  return "grow-host@" + c.network.name(anchor);
}

std::string grow_switch(ScenarioCase& c, common::Rng& rng) {
  auto anchors = nodes_with_free_port(c.network, /*switches_only=*/true);
  if (anchors.empty()) {
    return "";
  }
  const NodeId s = c.network.add_switch(fresh_name(c.network, "fs"));
  // One or two uplinks (two exercises replicate detection: the new switch
  // becomes reachable over two distinct paths).
  const int links = 1 + static_cast<int>(rng.below(2));
  rng.shuffle(anchors);
  int made = 0;
  for (const NodeId anchor : anchors) {
    if (made == links) {
      break;
    }
    if (c.network.free_port(anchor)) {
      c.network.connect_any(s, anchor);
      ++made;
    }
  }
  return "grow-switch(" + std::to_string(made) + " links)";
}

std::string add_wire(ScenarioCase& c, common::Rng& rng) {
  const auto candidates =
      nodes_with_free_port(c.network, /*switches_only=*/true);
  if (candidates.empty()) {
    return "";
  }
  const NodeId a = rng.pick(candidates);
  // Occasionally a loopback cable (a == b): real Myrinet installations had
  // them, and they stress the 0-turn probe logic.
  const NodeId b = rng.chance(0.1) ? a : rng.pick(candidates);
  if (a == b) {
    // connect_any handles the two-distinct-ports requirement; needs 2 free.
    const auto& t = c.network;
    int free_ports = 0;
    for (topo::Port p = 0; p < t.port_count(a); ++p) {
      free_ports += t.wire_at(a, p) ? 0 : 1;
    }
    if (free_ports < 2) {
      return "";
    }
  }
  c.network.connect_any(a, b);
  return a == b ? "add-loopback@" + c.network.name(a)
                : "add-wire " + c.network.name(a) + "--" + c.network.name(b);
}

std::string remove_wire(ScenarioCase& c, common::Rng& rng) {
  const auto wires = c.network.wires();
  if (wires.empty()) {
    return "";
  }
  const WireId w = rng.pick(wires);
  c.network.disconnect(w);
  c.drop_dangling_faults();
  return "remove-wire " + std::to_string(w);
}

std::string remove_node(ScenarioCase& c, common::Rng& rng) {
  const NodeId mapper = c.mapper_node();
  std::vector<NodeId> candidates;
  for (const NodeId n : c.network.nodes()) {
    if (n != mapper) {
      candidates.push_back(n);
    }
  }
  if (candidates.empty()) {
    return "";
  }
  const NodeId n = rng.pick(candidates);
  const std::string victim = c.network.name(n);
  c.network.remove_node(n);
  c.drop_dangling_faults();
  return "remove-node " + victim;
}

std::string rewire(ScenarioCase& c, common::Rng& rng) {
  const auto wires = c.network.wires();
  if (wires.empty()) {
    return "";
  }
  const WireId w = rng.pick(wires);
  c.network.disconnect(w);
  c.drop_dangling_faults();
  const auto ends = nodes_with_free_port(c.network, /*switches_only=*/false);
  if (ends.size() < 2) {
    return "rewire(cut only)";
  }
  NodeId a = rng.pick(ends);
  NodeId b = rng.pick(ends);
  // Hosts have a single port; a host-host cable is legal but a host
  // self-loop is not constructible.
  if (a == b && c.network.is_host(a)) {
    return "rewire(cut only)";
  }
  if (a == b) {
    int free_ports = 0;
    for (topo::Port p = 0; p < c.network.port_count(a); ++p) {
      free_ports += c.network.wire_at(a, p) ? 0 : 1;
    }
    if (free_ports < 2) {
      return "rewire(cut only)";
    }
  }
  c.network.connect_any(a, b);
  return "rewire -> " + c.network.name(a) + "--" + c.network.name(b);
}

/// Grafts a small generated subcluster onto the case's network over one or
/// two cables — the Fig. 4/5 composition move (subclusters joined at their
/// roots), scaled down for fuzzing throughput.
std::string graft(ScenarioCase& c, common::Rng& rng) {
  const auto anchors = nodes_with_free_port(c.network, /*switches_only=*/true);
  if (anchors.empty()) {
    return "";
  }
  // A star of 1..kMaxLeaves leaves with 1..2 hosts each fits the node
  // budget.
  constexpr std::uint64_t kMaxLeaves = (kMaxGraftNodes - 2) / 3;
  const int leaves = 1 + static_cast<int>(rng.below(kMaxLeaves));
  const int hosts = 1 + static_cast<int>(rng.below(2));  // 1..2 per leaf
  const Topology part = topo::star(std::min(leaves, 7), hosts);

  // Splice `part` into the case topology with fresh names.
  std::vector<NodeId> node_of(part.node_capacity(), topo::kInvalidNode);
  std::vector<NodeId> grafted_switches;
  for (const NodeId n : part.nodes()) {
    if (part.is_host(n)) {
      node_of[n] = c.network.add_host(fresh_name(c.network, "gh"));
    } else {
      node_of[n] = c.network.add_switch(fresh_name(c.network, "gs"));
      grafted_switches.push_back(node_of[n]);
    }
  }
  for (const WireId w : part.wires()) {
    const topo::Wire& wire = part.wire(w);
    c.network.connect(node_of[wire.a.node], wire.a.port, node_of[wire.b.node],
                      wire.b.port);
  }
  // Attach over one or two trunk cables.
  const int trunks = 1 + static_cast<int>(rng.below(2));
  int made = 0;
  for (int i = 0; i < trunks; ++i) {
    const NodeId inside = rng.pick(grafted_switches);
    std::vector<NodeId> outside;
    for (const NodeId n : anchors) {
      if (c.network.node_alive(n) && c.network.free_port(n)) {
        outside.push_back(n);
      }
    }
    if (outside.empty() || !c.network.free_port(inside)) {
      break;
    }
    c.network.connect_any(inside, rng.pick(outside));
    ++made;
  }
  return "graft(" + std::to_string(part.num_nodes()) + " nodes, " +
         std::to_string(made) + " trunks)";
}

common::SimTime random_instant(common::Rng& rng) {
  return common::SimTime::ns(rng.range(0, kFaultHorizon.to_ns()));
}

std::string fault_link(ScenarioCase& c, common::Rng& rng) {
  const auto wires = c.network.wires();
  if (wires.empty()) {
    return "";
  }
  FaultEvent e;
  e.kind = FaultEvent::Kind::kLinkDown;
  e.wire = rng.pick(wires);
  e.at = random_instant(rng);
  c.faults.push_back(e);
  if (rng.chance(0.4)) {  // sometimes the link comes back
    FaultEvent up = e;
    up.kind = FaultEvent::Kind::kLinkUp;
    up.at = e.at + random_instant(rng);
    c.faults.push_back(up);
    return "fault link-down+up wire " + std::to_string(e.wire);
  }
  return "fault link-down wire " + std::to_string(e.wire);
}

std::string fault_node(ScenarioCase& c, common::Rng& rng) {
  const NodeId mapper = c.mapper_node();
  std::vector<NodeId> candidates;
  for (const NodeId n : c.network.nodes()) {
    if (n != mapper) {
      candidates.push_back(n);
    }
  }
  if (candidates.empty()) {
    return "";
  }
  FaultEvent e;
  e.kind = FaultEvent::Kind::kNodeDown;
  e.node = rng.pick(candidates);
  e.at = random_instant(rng);
  c.faults.push_back(e);
  return "fault node-down " + c.network.name(e.node);
}

std::string fault_flap(ScenarioCase& c, common::Rng& rng) {
  const auto wires = c.network.wires();
  if (wires.empty()) {
    return "";
  }
  FaultEvent e;
  e.kind = FaultEvent::Kind::kFlap;
  e.wire = rng.pick(wires);
  e.period = common::SimTime::us(rng.range(200, 5000));
  e.duty = rng.uniform(0.3, 0.9);
  e.at = random_instant(rng);
  c.faults.push_back(e);
  return "fault flap wire " + std::to_string(e.wire);
}

std::string toggle_collision(ScenarioCase& c) {
  c.collision = c.collision == simnet::CollisionModel::kCircuit
                    ? simnet::CollisionModel::kCutThrough
                    : simnet::CollisionModel::kCircuit;
  return std::string("collision -> ") + simnet::to_string(c.collision);
}

}  // namespace

std::string mutate(ScenarioCase& c, common::Rng& rng) {
  // Weighted move table: growth and rewiring dominate.
  const std::uint64_t move = rng.below(12);
  switch (move) {
    case 0:
    case 1:
      return grow_host(c, rng);
    case 2:
    case 3:
      return grow_switch(c, rng);
    case 4:
      return add_wire(c, rng);
    case 5:
      return remove_wire(c, rng);
    case 6:
      return remove_node(c, rng);
    case 7:
      return rewire(c, rng);
    case 8:
      return graft(c, rng);
    case 9:
      return rng.chance(0.5) ? fault_link(c, rng) : fault_node(c, rng);
    case 10:
      return fault_flap(c, rng);
    case 11:
      return toggle_collision(c);
    default:
      return "";
  }
}

std::string mutate_n(ScenarioCase& c, int count, common::Rng& rng) {
  std::string trail;
  int applied = 0;
  for (int attempt = 0; applied < count && attempt < count * 8; ++attempt) {
    const std::string what = mutate(c, rng);
    if (what.empty()) {
      continue;
    }
    if (!trail.empty()) {
      trail += "; ";
    }
    trail += what;
    ++applied;
  }
  return trail;
}

}  // namespace sanmap::verify
