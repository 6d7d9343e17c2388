// All-pairs UP*/DOWN*-compliant routes (§5.5), stored as one next-hop tree
// per destination host.
//
// A route's state is the switch it is at plus its phase: whether it has
// made a down move yet. A compliant route makes its up moves first, so from
// any state the rest of a shortest route depends only on the state and the
// destination. The table therefore keeps, for every (state, destination
// host), the one wire a message in that state takes next: 2·S entries per
// destination, H·2·S in all (H hosts, S switches), against H²·L hops for
// materialized routes (L the mean hop count). It is the per-interface table
// §5.5 distributes, indexed by destination instead of by source.
//
// Emitters (compute_updown_routes here, the DFS engine, optimize_routes,
// compute_tree_routes) fill the entries of the states some source reaches.
// The shortest-route emitters run one reverse breadth-first search per
// destination switch over the (switch, phase) product graph, O(S + E) each
// (E wires), then fill each destination's entries farthest state first, so
// an entry knows how many sources it routes (its weight) when it is
// chosen. The UP*/DOWN* emitter's choice is seeded: the less loaded of two
// random picks among the tied next hops, then of the parallel cables to
// that switch the one with the fewest routes in both directions, which
// keeps every trunk's joint counts within one entry's weight of even.
// Emission is O(H·(S + E)); the table is H·2·S bytes (one port per entry).
// The entries are the whole table: what each cable of a trunk carries is
// read from them (channel_loads).
//
// Host routes are built on read: RoutingResult::route() and table_for(),
// and RouteTable::for_each_route(), walk the entries from the source
// host's first hop, emitting the hop path and the source-route turn word
// (§2.2 relative addressing). That is what the independent checkers and
// the NIC-facing readers consume, at O(L) a route. The builders
// (certificates, loads, hop statistics, quality lints) read each
// destination's tree instead (for_each_tree()): its reached states, how many
// sources each entry routes and how far each state is from the
// destination, in O(H·(S + E)) for the whole table. The reads every table
// gets — its turns, hop counts and UP*/DOWN* compliance (summarize()) and
// its routed-pair count (recount()) — run in blocks of kBlock destinations
// on the caller's pool and merge in block order by OR and integer sums, so
// they are the same bytes on any core count.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "routing/updown.hpp"
#include "simnet/route.hpp"
#include "topology/topology.hpp"

namespace sanmap::common {
class CallPool;
}  // namespace sanmap::common

namespace sanmap::routing {

/// One host-to-host route, as a walk of the table produces it.
struct HostRoute {
  /// The source-route turn sequence a NIC would prepend to a message.
  simnet::Route turns;
  /// Node path: src host, switches..., dst host.
  std::vector<topo::NodeId> nodes;
  /// Wires traversed; wires[i] connects nodes[i] to nodes[i+1].
  std::vector<topo::WireId> wires;

  [[nodiscard]] int hops() const { return static_cast<int>(wires.size()); }
};

/// Whether a route has made a down move yet. A route in kDown may only move
/// down; an up move there is the down-to-up turn UP*/DOWN* forbids.
enum class Phase : std::uint8_t { kUp = 0, kDown = 1 };

/// The next-hop table: per destination host, per (switch, phase) state,
/// the wire to take, stored as its port on the switch (one byte).
/// Self-contained: it copies the wire ends and each directed channel's
/// up/down sense at construction, so it can be walked after the topology it
/// was built over has moved.
class RouteTable {
 public:
  static constexpr std::uint32_t kNone =
      std::numeric_limits<std::uint32_t>::max();
  /// Destinations per task of the pooled passes over the table: a
  /// constant, so the blocks and the order they merge in do not depend on
  /// the core count.
  static constexpr std::uint32_t kBlock = 64;

  /// One move out of a state (or out of a source host).
  struct Hop {
    topo::WireId wire = topo::kInvalidWire;
    /// Directed channel slot (routing/congestion.hpp's channel_slot).
    std::size_t channel = 0;
    topo::NodeId from = topo::kInvalidNode;
    /// kInvalidNode when the wire does not leave `from`.
    topo::NodeId to = topo::kInvalidNode;
    /// The move goes up (toward the root) under the table's orientation.
    bool up = false;
    /// The state entered, or kNone when `to` is not a switch.
    std::uint32_t state = kNone;
    /// The ports the wire leaves `from` by and enters `to` by.
    topo::Port out_port = 0;
    topo::Port in_port = 0;
  };

  /// One destination's tree, as the builders read it.
  struct Tree {
    /// Destination host index.
    std::uint32_t dst = kNone;
    /// The states on some walk that reaches the destination, each before
    /// its successor (sources first).
    std::vector<std::uint32_t> order;
    /// Per state: the routed walks through it (0 off the tree).
    std::vector<std::uint32_t> weight;
    /// Per state on the tree: the next state, or kNone when the entry
    /// reaches the destination host.
    std::vector<std::uint32_t> succ;
    /// Per state on the tree: hops from it to the destination host.
    std::vector<std::uint32_t> len;
    /// Per source host index: its walk reaches the destination.
    std::vector<std::uint8_t> routed;
  };

  RouteTable() = default;
  /// A table with no entries over `topo`'s live hosts, switches and wires,
  /// each directed channel oriented by `orientation`.
  RouteTable(const topo::Topology& topo, const UpDownOrientation& orientation);

  /// Routed host pairs: those whose walk does not stop at a missing entry.
  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  /// Live hosts, ascending; a host's index is its position here.
  [[nodiscard]] const std::vector<topo::NodeId>& hosts() const {
    return hosts_;
  }
  /// Index of `host` in hosts(), or kNone.
  [[nodiscard]] std::uint32_t host_index(topo::NodeId host) const {
    return host < host_index_.size() ? host_index_[host] : kNone;
  }
  [[nodiscard]] std::size_t num_switches() const { return switches_.size(); }
  [[nodiscard]] std::size_t num_states() const { return 2 * switches_.size(); }
  /// Directed channel slots (channel_slot) of the topology the table was
  /// built over: two per wire slot.
  [[nodiscard]] std::size_t num_channels() const { return channels_; }
  [[nodiscard]] topo::NodeId state_switch(std::uint32_t state) const {
    return switches_[state / 2];
  }
  [[nodiscard]] static Phase state_phase(std::uint32_t state) {
    return state % 2 == 0 ? Phase::kUp : Phase::kDown;
  }
  /// The state of switch index `s` in `phase`.
  [[nodiscard]] static std::uint32_t state_of(std::uint32_t s, Phase phase) {
    return 2 * s + static_cast<std::uint32_t>(phase);
  }
  /// The state a move onto switch index `to` enters from phase `from`: an
  /// up move keeps the phase, a down move enters kDown for good. A host's
  /// first hop moves from kUp.
  [[nodiscard]] static std::uint32_t next_state(std::uint32_t to, bool up,
                                                Phase from) {
    return state_of(to, up && from == Phase::kUp ? Phase::kUp : Phase::kDown);
  }
  /// Host index `i`'s first hop, onto its switch.
  [[nodiscard]] const Hop& first_hop(std::uint32_t i) const {
    return first_hop_[i];
  }
  /// The state host index `i` enters with its first hop, or kNone when
  /// the host is not wired to a switch.
  [[nodiscard]] std::uint32_t start(std::uint32_t i) const {
    return first_hop_[i].state;
  }
  /// The hop `wire` makes out of `state`.
  [[nodiscard]] Hop hop(std::uint32_t state, topo::WireId wire) const;
  /// The hop out of `state` by its switch's port `port`.
  [[nodiscard]] Hop port_hop(std::uint32_t state, std::uint8_t port) const;
  /// The hop the entry of `state` toward host index `dst` makes; the entry
  /// must be set.
  [[nodiscard]] Hop entry_hop(std::uint32_t dst, std::uint32_t state) const {
    return port_hop(state, next_[dst * num_states() + state]);
  }
  /// The wire every route from or to host index `j` takes at the host.
  [[nodiscard]] topo::WireId host_wire(std::uint32_t j) const {
    return first_hop_[j].wire;
  }

  /// The entry of `state` toward host index `dst`; kInvalidWire when unset.
  [[nodiscard]] topo::WireId next(std::uint32_t dst,
                                  std::uint32_t state) const {
    const std::uint8_t port = next_[dst * num_states() + state];
    return port == kNoPort ? topo::kInvalidWire
                           : ports_[port_slot(state / 2, port)].wire;
  }
  /// Sets the entry of `state` toward host index `dst` to `wire`, which must
  /// leave the state's switch (kInvalidWire clears it). Whoever writes
  /// entries calls recount() once done.
  void set_entry(std::uint32_t dst, std::uint32_t state, topo::WireId wire);
  /// set_entry by the wire's port on the state's switch.
  void set_port(std::uint32_t dst, std::uint32_t state, std::uint8_t port) {
    next_[dst * num_states() + state] = port;
  }
  /// Whether an entry of `state` may name `port`: a port of the state's
  /// switch that carries a wire other than a loopback cable.
  [[nodiscard]] bool usable_port(std::uint32_t state,
                                 std::uint8_t port) const {
    return port < topo::kSwitchPorts &&
           ports_[port_slot(state / 2, port)].wire != topo::kInvalidWire;
  }
  /// Clears every entry toward host index `dst`.
  void clear_entries(std::uint32_t dst);
  /// The raw entries: the port at dst * num_states() + state, 0xff unset.
  [[nodiscard]] std::span<const std::uint8_t> entries() const {
    return next_;
  }
  /// Recomputes size() after entries were written, its blocks of
  /// destinations on `pool`.
  void recount(common::CallPool& pool);
  /// recount() on a pool of its own.
  void recount();

  /// Walks src -> dst into `out` (its buffers are reused). Returns false
  /// when the walk stops at a missing entry: the table has no such route.
  /// A walk that loops or ends at another host is returned as far as it
  /// got, so structural checks can name it.
  bool walk(std::uint32_t src, std::uint32_t dst, HostRoute& out) const;

  /// Every routed pair whose source has host index in [begin, end), in
  /// ascending (src, dst) order, through one reused buffer:
  /// visit(src, dst, const HostRoute&). Disjoint source ranges may be
  /// walked concurrently.
  template <typename Visit>
  void for_each_route(std::uint32_t begin, std::uint32_t end,
                      Visit&& visit) const {
    HostRoute buffer;
    const auto n = static_cast<std::uint32_t>(hosts_.size());
    for (std::uint32_t i = begin; i < end && i < n; ++i) {
      for (std::uint32_t j = 0; j < n; ++j) {
        if (i != j && walk(i, j, buffer)) {
          visit(hosts_[i], hosts_[j], static_cast<const HostRoute&>(buffer));
        }
      }
    }
  }
  /// Every routed pair, in ascending (src, dst) order.
  template <typename Visit>
  void for_each_route(Visit&& visit) const {
    for_each_route(0, kNone, std::forward<Visit>(visit));
  }

  /// Fills `out` with destination `dst`'s tree.
  void tree(std::uint32_t dst, Tree& out) const;
  /// Every destination's tree, ascending, through one reused Tree:
  /// visit(const Tree&).
  template <typename Visit>
  void for_each_tree(Visit&& visit) const {
    Tree buffer;
    for (std::uint32_t j = 0; j < hosts_.size(); ++j) {
      tree(j, buffer);
      visit(static_cast<const Tree&>(buffer));
    }
  }

  /// Switch-to-switch moves out of switch index `s`, ascending by wire.
  struct Link {
    topo::WireId wire;
    std::uint32_t to;   // switch index
    bool up;            // the move goes up
    std::uint8_t port;  // the wire's port on this switch
  };
  [[nodiscard]] std::span<const Link> links(std::uint32_t s) const {
    return {links_.data() + link_begin_[s],
            link_begin_[s + 1] - link_begin_[s]};
  }

  /// Heap bytes held by the table.
  [[nodiscard]] std::size_t bytes() const;

 private:
  /// Where the walk of one state ends: the destination, a missing entry,
  /// or somewhere else (a loop or another host).
  enum class Outcome : std::uint8_t { kUnknown, kOpen, kReaches, kMissing,
                                      kBroken };
  /// Resolves every source's walk toward `dst`: per-state outcomes, and
  /// the resolved states with each after its successor.
  void resolve(std::uint32_t dst, std::vector<Outcome>& outcome,
               std::vector<std::uint32_t>& succ,
               std::vector<std::uint32_t>& post) const;

  static constexpr std::uint8_t kNoPort = 0xff;

  /// The wire on one switch port, as the walk reads it.
  struct PortEnd {
    topo::WireId wire = topo::kInvalidWire;
    topo::NodeId to = topo::kInvalidNode;
    /// Switch index of `to`, or kNone.
    std::uint32_t to_switch = kNone;
    topo::Port in_port = 0;
    std::uint32_t channel = 0;
    bool up = false;
  };

  /// The index into ports_ of switch index `s`'s port `port`.
  [[nodiscard]] static std::size_t port_slot(std::uint32_t s,
                                             std::uint8_t port) {
    return std::size_t{s} * topo::kSwitchPorts + port;
  }
  /// The port `wire` leaves switch index `s` by, or kNoPort.
  [[nodiscard]] std::uint8_t port_of(std::uint32_t s, topo::WireId wire) const;

  std::vector<topo::NodeId> hosts_;
  std::vector<topo::NodeId> switches_;
  std::vector<std::uint32_t> host_index_;    // by NodeId
  std::vector<std::uint32_t> switch_index_;  // by NodeId
  std::vector<Hop> first_hop_;               // by host index
  std::vector<PortEnd> ports_;               // switch index * 8 + port
  std::vector<std::uint32_t> link_begin_;    // by switch index, CSR
  std::vector<Link> links_;
  /// The chosen out-port per (destination, state), at dst * states +
  /// state: one destination's tree is one contiguous run. kNoPort when
  /// unset.
  std::vector<std::uint8_t> next_;
  std::size_t channels_ = 0;
  std::size_t size_ = 0;
};

/// The usual route-quality summary: mean and maximum hops over every routed
/// pair.
struct HopSummary {
  double mean = 0.0;
  int max = 0;
};

/// What one pass over every destination's tree reads off a table.
struct TableSummary {
  /// Per held channel slot: bit p is set when some route turns from that
  /// channel onto the one leaving its far switch by port p. Read as
  /// channel dependencies by routing::for_each_dependency.
  std::vector<std::uint8_t> next_ports;
  /// Routed pairs, and the sum and maximum of their hop counts.
  std::uint64_t routed = 0;
  std::uint64_t total_hops = 0;
  std::uint32_t max_hops = 0;
  /// Every route obeys the UP*/DOWN* rule: no entry of a state in
  /// Phase::kDown moves up.
  bool compliant = true;

  [[nodiscard]] HopSummary hops() const;
};

struct RoutingResult {
  UpDownOrientation orientation;
  /// Routes for every ordered pair of distinct hosts.
  RouteTable routes;

  /// The route src -> dst, built by walking the table. Throws CheckFailure
  /// when the table does not route the pair.
  [[nodiscard]] HostRoute route(topo::NodeId src, topo::NodeId dst) const;

  /// The per-source route table (what the paper distributes to each
  /// network interface), in ascending destination order.
  [[nodiscard]] std::vector<HostRoute> table_for(topo::NodeId src) const;
};

/// Reads every destination's tree once, in blocks of RouteTable::kBlock
/// destinations on `pool`: the turns, the hop counts and compliance. The
/// blocks merge in block order, by OR and by integer sums, so the summary
/// is the same on any core count.
TableSummary summarize(const RoutingResult& routes, common::CallPool& pool);
/// summarize() on a pool of its own.
TableSummary summarize(const RoutingResult& routes);

/// Computes UP*/DOWN* routes over a (mapped) topology. The topology must be
/// connected with at least one switch and one host. `seed` drives the
/// random choice among tied next hops and parallel cables.
RoutingResult compute_updown_routes(const topo::Topology& topo,
                                    const UpDownOptions& options = {},
                                    std::uint64_t seed = 1);

}  // namespace sanmap::routing
