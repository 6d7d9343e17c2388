// The network multigraph N of §2.1: hosts and switches with port-labeled
// wires. Supports dynamic reconfiguration (node/wire removal with tombstones)
// because the paper's motivating scenario is networks that change over time.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "topology/types.hpp"

namespace sanmap::topo {

/// A mutable host/switch multigraph with per-port wiring.
///
/// Invariants enforced on mutation:
///  * a port carries at most one wire (paper §2.1: "no two wire-ends incident
///    on the same node share a port number");
///  * switch ports are in {0..7}, host ports are {0};
///  * host names are unique (hosts are uniquely identifiable, §2.3).
///
/// Removal tombstones nodes/wires; iteration helpers return live entities
/// only. compacted() produces a dense renumbered copy.
class Topology {
 public:
  Topology() = default;

  // -- construction ---------------------------------------------------------

  /// Adds a host. An empty name auto-generates a unique "hN" name.
  NodeId add_host(std::string name = "");

  /// Adds a switch. An empty name auto-generates "sN" (switch names are for
  /// diagnostics only — the mapping problem exists precisely because switches
  /// are anonymous on the wire).
  NodeId add_switch(std::string name = "");

  /// Connects port pa of node a to port pb of node b. Both ports must be
  /// free. Self-loops on a single switch (a == b, pa != pb) are permitted —
  /// real Myrinet installations used loopback cables.
  WireId connect(NodeId a, Port pa, NodeId b, Port pb);

  /// Connects using the lowest free port on each side. Returns the new wire.
  WireId connect_any(NodeId a, NodeId b);

  /// Removes a wire, freeing both ports.
  void disconnect(WireId w);

  /// Removes a node and all incident wires.
  void remove_node(NodeId n);

  // -- queries --------------------------------------------------------------

  // node_alive, wire_alive, wire, kind, port_count and wire_at are inline:
  // route emission, analysis and the simulator's hop walk call them once or
  // more per hop. Each tests its ids inline and leaves the failure to the
  // out-of-line check.
  [[nodiscard]] bool node_alive(NodeId n) const {
    return n < nodes_.size() && nodes_[n].alive;
  }
  [[nodiscard]] bool wire_alive(WireId w) const {
    return w < wires_.size() && wires_[w].alive;
  }

  [[nodiscard]] NodeKind kind(NodeId n) const {
    if (!node_alive(n)) [[unlikely]] {
      check_node(n);
    }
    return nodes_[n].kind;
  }
  [[nodiscard]] bool is_host(NodeId n) const {
    return kind(n) == NodeKind::kHost;
  }
  [[nodiscard]] bool is_switch(NodeId n) const {
    return kind(n) == NodeKind::kSwitch;
  }
  [[nodiscard]] const std::string& name(NodeId n) const;
  [[nodiscard]] Port port_count(NodeId n) const {
    if (!node_alive(n)) [[unlikely]] {
      check_node(n);
    }
    return static_cast<Port>(nodes_[n].ports.size());
  }

  /// The wire attached at (n, p), if any.
  [[nodiscard]] std::optional<WireId> wire_at(NodeId n, Port p) const {
    if (!node_alive(n) || p < 0 ||
        static_cast<std::size_t>(p) >= nodes_[n].ports.size()) [[unlikely]] {
      check_port(n, p);
    }
    const WireId w = nodes_[n].ports[static_cast<std::size_t>(p)];
    if (w == kInvalidWire) {
      return std::nullopt;
    }
    return w;
  }
  /// The wire-end on the far side of the wire at (n, p), if any.
  [[nodiscard]] std::optional<PortRef> peer(NodeId n, Port p) const;
  [[nodiscard]] const Wire& wire(WireId w) const {
    if (!wire_alive(w)) [[unlikely]] {
      check_wire(w);
    }
    return wires_[w].wire;
  }

  /// Number of live wires incident on n (self-loops count twice).
  [[nodiscard]] int degree(NodeId n) const;

  [[nodiscard]] std::size_t num_hosts() const { return num_hosts_; }
  [[nodiscard]] std::size_t num_switches() const { return num_switches_; }
  [[nodiscard]] std::size_t num_nodes() const {
    return num_hosts_ + num_switches_;
  }
  [[nodiscard]] std::size_t num_wires() const { return num_wires_; }

  /// Upper bound over live + dead node ids; use with node_alive() to iterate
  /// without materializing a vector.
  [[nodiscard]] std::size_t node_capacity() const { return nodes_.size(); }
  [[nodiscard]] std::size_t wire_capacity() const { return wires_.size(); }

  /// Live node id lists (stable ascending order).
  [[nodiscard]] std::vector<NodeId> nodes() const;
  [[nodiscard]] std::vector<NodeId> hosts() const;
  [[nodiscard]] std::vector<NodeId> switches() const;
  [[nodiscard]] std::vector<WireId> wires() const;

  /// Live neighbor wire-ends of n in ascending port order. Each element is
  /// the far end of one wire at one of n's ports.
  [[nodiscard]] std::vector<PortRef> neighbors(NodeId n) const;

  /// The raw per-port wire slots of n in port order (kInvalidWire at free
  /// ports): the allocation-free alternative to neighbors() for hot loops.
  /// Follow a live slot with wire(w).opposite(PortRef{n, p}).
  [[nodiscard]] std::span<const WireId> port_wires(NodeId n) const;

  /// Finds a host by its unique name.
  [[nodiscard]] std::optional<NodeId> find_host(const std::string& name) const;
  /// Finds a switch by name. Switch names need not be unique: the live
  /// switch with the highest id wins.
  [[nodiscard]] std::optional<NodeId> find_switch(
      const std::string& name) const;

  /// Lowest free port on n, if any.
  [[nodiscard]] std::optional<Port> free_port(NodeId n) const;

  /// Dense copy with tombstones removed and ids renumbered in ascending
  /// order of the original ids. Names are preserved.
  [[nodiscard]] Topology compacted() const;

  /// Structural equality: same live node set (by id), kinds, names, and the
  /// same wires at the same ports. (For equivalence up to renumbering use
  /// topo::isomorphic.)
  [[nodiscard]] bool structurally_equal(const Topology& other) const;

  /// A process-unique stamp of this topology's current contents. Every
  /// mutation (add_host, add_switch, connect, connect_any, disconnect,
  /// remove_node) draws a fresh one from a process-wide atomic counter;
  /// copies carry it, and a moved-from topology draws a fresh one. Two
  /// topologies with the same generation therefore hold the same contents,
  /// which lets a cache keyed by generation (the simulator's resumed probe
  /// walk) survive exactly as long as what it describes.
  [[nodiscard]] std::uint64_t generation() const { return generation_.value; }

 private:
  /// The generation stamp's value semantics: default construction draws,
  /// copies carry, and a move leaves the source a fresh stamp of its own.
  struct Generation {
    static std::uint64_t draw();

    Generation() = default;
    Generation(const Generation&) = default;
    Generation& operator=(const Generation&) = default;
    Generation(Generation&& other) noexcept : value(other.value) {
      other.value = draw();
    }
    Generation& operator=(Generation&& other) noexcept {
      value = other.value;
      other.value = draw();
      return *this;
    }

    std::uint64_t value = draw();
  };

  struct NodeRec {
    NodeKind kind = NodeKind::kSwitch;
    std::string name;
    bool alive = true;
    // One slot per port; kInvalidWire when the port is free.
    std::vector<WireId> ports;
  };

  struct WireRec {
    Wire wire;
    bool alive = true;
  };

  NodeId add_node(NodeKind kind, std::string name);
  void check_node(NodeId n) const;
  void check_wire(WireId w) const;
  void check_port(NodeId n, Port p) const;

  std::vector<NodeRec> nodes_;
  std::vector<WireRec> wires_;
  std::unordered_map<std::string, NodeId> host_by_name_;
  std::size_t num_hosts_ = 0;
  std::size_t num_switches_ = 0;
  std::size_t num_wires_ = 0;
  Generation generation_;
};

}  // namespace sanmap::topo
