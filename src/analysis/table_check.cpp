#include "analysis/table_check.hpp"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "analysis/lints.hpp"
#include "common/check.hpp"

namespace sanmap::analysis {

namespace {

using routing::RouteTable;

constexpr std::uint32_t kBlock = RouteTable::kBlock;
constexpr std::uint8_t kNoPort = 0xff;

/// A state's colour toward one destination: unvisited, open on the walk
/// being followed, or the outcome of the walk from it.
constexpr std::uint8_t kWhite = 0;
constexpr std::uint8_t kGrey = 1;
constexpr std::uint8_t kReaches = 2;
constexpr std::uint8_t kMissing = 3;
constexpr std::uint8_t kBroken = 4;
/// Or-ed into an outcome: the walk meets a suspect wire end.
constexpr std::uint8_t kSuspect = 0x10;
constexpr std::uint8_t kOutcome = 0x0f;
/// A state's marks: reached before any down move (by the labels), after.
constexpr std::uint8_t kReachedUp = 1;
constexpr std::uint8_t kReachedDown = 2;

/// Whether the table's copy of one wire end agrees with the map: `w` is a
/// live wire other than a loopback, joining `from`'s port `out` to `to`'s
/// port `in`.
bool agrees(const topo::Topology& map, topo::WireId w, topo::NodeId from,
            topo::Port out, topo::NodeId to, topo::Port in) {
  if (!map.wire_alive(w)) {
    return false;
  }
  const topo::Wire& wire = map.wire(w);
  const bool a_first = wire.a.node == from;
  return wire.a.node != wire.b.node &&
         (a_first ? wire.a : wire.b) == topo::PortRef{from, out} &&
         (a_first ? wire.b : wire.a) == topo::PortRef{to, in};
}

/// What one block of destinations derives.
struct Block {
  /// (source, destination) index pairs whose routes must be linted.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> suspects;
  std::vector<IllegalRoute> illegal;
  /// Per held channel: one bit per port of the switch it enters that some
  /// reached entry leaves by.
  std::vector<std::uint8_t> out_ports;
  std::size_t routes = 0;
};

/// What every block reads: the table, the labels, and which of the
/// table's copied wire ends disagree with the map.
struct Inputs {
  Inputs(const topo::Topology& map, const RouteTable& checked,
         const std::vector<int>& order)
      : table(checked), labels(order) {
    for (std::uint32_t i = 0; i < table.hosts().size(); ++i) {
      const topo::NodeId h = table.hosts()[i];
      const RouteTable::Hop& first = table.first_hop(i);
      suspect_host.push_back(
          !map.node_alive(h) || !map.is_host(h) ||
          (first.to != topo::kInvalidNode &&
           !agrees(map, first.wire, h, 0, first.to, first.in_port)));
    }
    for (std::uint32_t s = 0; s < table.num_switches(); ++s) {
      for (std::uint8_t p = 0; p < topo::kSwitchPorts; ++p) {
        const RouteTable::Hop hop = table.port_hop(2 * s, p);
        suspect_port.push_back(
            !table.usable_port(2 * s, p) ||
            !agrees(map, hop.wire, hop.from, hop.out_port, hop.to,
                    hop.in_port));
      }
    }
  }

  const RouteTable& table;
  const std::vector<int>& labels;
  /// Per host index: a dead or non-host endpoint, or a first hop that
  /// disagrees with the map.
  std::vector<std::uint8_t> suspect_host;
  /// Per switch index * 8 + port: a wire end that disagrees with the map.
  std::vector<std::uint8_t> suspect_port;
};

/// The per-destination passes of one block, with the block's buffers.
class Checker {
 public:
  explicit Checker(const Inputs& in)
      : in_(in),
        table_(in.table),
        colour_(in.table.num_states()),
        marks_(in.table.num_states()) {}

  /// All three passes for destination index `j`, into `out`.
  void check(std::uint32_t j, Block& out) {
    j_ = j;
    target_ = table_.hosts()[j];
    entry_ = table_.entries().data() + std::size_t{j} * table_.num_states();
    std::fill(colour_.begin(), colour_.end(), kWhite);
    std::fill(marks_.begin(), marks_.end(), 0);
    bool offends = false;
    const auto n = static_cast<std::uint32_t>(table_.hosts().size());
    for (std::uint32_t i = 0; i < n; ++i) {
      const RouteTable::Hop& first = table_.first_hop(i);
      if (i == j || first.to == topo::kInvalidNode) {
        continue;  // no walk: the host has no link
      }
      // A host linked straight to a host: one hop, no entry.
      const std::uint8_t end =
          first.state != RouteTable::kNone ? colour(first.state)
          : first.to == target_            ? kReaches
                                           : kBroken;
      if ((end & kOutcome) == kMissing) {
        continue;  // the walk stops at a missing entry: no route
      }
      if ((end & kOutcome) != kReaches || (end & kSuspect) != 0 ||
          in_.suspect_host[i] != 0 || in_.suspect_host[j] != 0) {
        out.suspects.emplace_back(i, j);
      }
      if ((end & kOutcome) == kReaches) {
        ++out.routes;
        offends = mark(i, out.out_ports) || offends;
      }
    }
    if (offends) {
      name_illegal_routes(out.illegal);
    }
  }

 private:
  /// Termination: colours every state on the walk from `x` with the walk's
  /// outcome, stopping at the first state already coloured. Meeting a state
  /// still open on this walk is a loop.
  std::uint8_t colour(std::uint32_t x) {
    path_.clear();
    std::uint8_t end = kBroken;
    for (;;) {
      if (colour_[x] != kWhite) {
        end = colour_[x] == kGrey ? kBroken : colour_[x];
        break;
      }
      colour_[x] = kGrey;
      path_.push_back(x);
      const std::uint8_t port = entry_[x];
      if (port == kNoPort) {
        end = kMissing;
        break;
      }
      const RouteTable::Hop hop = table_.port_hop(x, port);
      if (hop.to == target_) {
        end = kReaches;
        break;
      }
      if (hop.state == RouteTable::kNone) {
        break;  // another host, or no wire
      }
      x = hop.state;
    }
    for (auto it = path_.rbegin(); it != path_.rend(); ++it) {
      const std::uint8_t port = entry_[*it];
      if (port != kNoPort &&
          in_.suspect_port[std::size_t{*it / 2} * topo::kSwitchPorts + port] !=
              0) {
        end |= kSuspect;
      }
      colour_[*it] = end;
    }
    return end;
  }

  /// Whether the move from `from` to `to` goes up under the labels. Nodes
  /// the labels do not cover only occur on routes that fail the structure
  /// lints.
  [[nodiscard]] bool goes_up(topo::NodeId from, topo::NodeId to) const {
    const std::vector<int>& labels = in_.labels;
    if (from >= labels.size() || to >= labels.size()) {
      return false;
    }
    return labels[to] < labels[from] ||
           (labels[to] == labels[from] && to < from);
  }

  /// Legality and dependencies: marks the (state, label phase) pairs the
  /// routed walk of source `i` reaches, recording each turn it makes, and
  /// stops at the first pair already marked (its suffix is recorded).
  /// Returns whether a marked entry moves up after a down move.
  bool mark(std::uint32_t i, std::vector<std::uint8_t>& out_ports) {
    const RouteTable::Hop& first = table_.first_hop(i);
    if (first.state == RouteTable::kNone) {
      return false;
    }
    bool offends = false;
    bool down = !goes_up(first.from, first.to);
    std::size_t held = first.channel;
    for (std::uint32_t x = first.state;;) {
      const std::uint8_t port = entry_[x];
      out_ports[held] |= static_cast<std::uint8_t>(1u << port);
      const std::uint8_t phase = down ? kReachedDown : kReachedUp;
      if ((marks_[x] & phase) != 0) {
        break;
      }
      marks_[x] |= phase;
      const RouteTable::Hop hop = table_.port_hop(x, port);
      const bool up = goes_up(hop.from, hop.to);
      offends = offends || (down && up);
      if (hop.to == target_) {
        break;
      }
      down = down || !up;
      held = hop.channel;
      x = hop.state;
    }
    return offends;
  }

  /// Walks every routed source toward the current destination and lists
  /// each route's first up move after a down move.
  void name_illegal_routes(std::vector<IllegalRoute>& illegal) const {
    const auto n = static_cast<std::uint32_t>(table_.hosts().size());
    for (std::uint32_t i = 0; i < n; ++i) {
      const RouteTable::Hop& first = table_.first_hop(i);
      if (i == j_ || first.to == topo::kInvalidNode ||
          first.state == RouteTable::kNone ||
          (colour_[first.state] & kOutcome) != kReaches) {
        continue;
      }
      bool down = !goes_up(first.from, first.to);
      std::uint32_t x = first.state;
      for (int hop_index = 1;; ++hop_index) {
        const RouteTable::Hop hop = table_.port_hop(x, entry_[x]);
        const bool up = goes_up(hop.from, hop.to);
        if (down && up) {
          illegal.push_back({first.from, target_, hop_index});
          break;
        }
        if (hop.to == target_) {
          break;
        }
        down = down || !up;
        x = hop.state;
      }
    }
  }

  const Inputs& in_;
  const RouteTable& table_;
  /// The current destination.
  std::uint32_t j_ = 0;
  topo::NodeId target_ = topo::kInvalidNode;
  const std::uint8_t* entry_ = nullptr;
  std::vector<std::uint8_t> colour_;
  std::vector<std::uint8_t> marks_;
  std::vector<std::uint32_t> path_;
};

}  // namespace

TableCheck::TableCheck(const topo::Topology& map,
                       const routing::RouteTable& table,
                       std::vector<int> labels, common::CallPool& pool)
    : map_(&map), labels_(std::move(labels)) {
  SANMAP_CHECK_MSG(labels_.size() >= map.node_capacity(),
                   "legality labels cover fewer nodes than the map");
  // Every channel a hop of the table names, and the switch it enters
  // (kNone for a channel into a host).
  std::vector<std::uint32_t> enters;
  const auto note = [&](const RouteTable::Hop& hop) {
    if (hop.channel >= enters.size()) {
      enters.resize(hop.channel + 1, RouteTable::kNone);
    }
    if (hop.state != RouteTable::kNone) {
      enters[hop.channel] = hop.state / 2;
    }
  };
  const auto n = static_cast<std::uint32_t>(table.hosts().size());
  for (std::uint32_t i = 0; i < n; ++i) {
    note(table.first_hop(i));
  }
  for (std::uint32_t s = 0; s < table.num_switches(); ++s) {
    for (std::uint8_t p = 0; p < topo::kSwitchPorts; ++p) {
      if (table.usable_port(2 * s, p)) {
        note(table.port_hop(2 * s, p));
      }
    }
  }
  const std::size_t channels = enters.size();

  const Inputs inputs(map, table, labels_);
  std::vector<Block> blocks((n + kBlock - 1) / kBlock);
  pool.run(blocks.size(), [&](std::size_t b) {
    Block& block = blocks[b];
    block.out_ports.assign(channels, 0);
    Checker checker(inputs);
    const auto begin = static_cast<std::uint32_t>(b) * kBlock;
    for (std::uint32_t j = begin; j < std::min(n, begin + kBlock); ++j) {
      checker.check(j, block);
    }
  });

  std::vector<std::pair<std::uint32_t, std::uint32_t>> suspects;
  std::vector<std::uint8_t> out_ports(channels, 0);
  for (const Block& block : blocks) {
    suspects.insert(suspects.end(), block.suspects.begin(),
                    block.suspects.end());
    illegal_.insert(illegal_.end(), block.illegal.begin(),
                    block.illegal.end());
    for (std::size_t c = 0; c < channels; ++c) {
      out_ports[c] |= block.out_ports[c];
    }
    routes_ += block.routes;
  }
  // Key order: hosts are ascending, so index pairs sort as node pairs.
  std::sort(suspects.begin(), suspects.end());
  std::sort(illegal_.begin(), illegal_.end());

  routing::HostRoute route;
  for (const auto& [i, j] : suspects) {
    table.walk(i, j, route);
    sound_ = lint_route(map, table.hosts()[i], table.hosts()[j], route,
                        structure_) &&
             sound_;
  }

  // Each turn recorded as (held channel, port) names the channel leaving
  // the switch the held one enters by that port.
  for (std::size_t held = 0; held < channels; ++held) {
    for (std::uint8_t p = 0; p < topo::kSwitchPorts; ++p) {
      if ((out_ports[held] & (1u << p)) != 0 &&
          enters[held] != RouteTable::kNone) {
        dependencies_.add(held, table.port_hop(2 * enters[held], p).channel);
      }
    }
  }
}

bool TableCheck::sound(std::vector<std::string>* why) const {
  if (!sound_ && why != nullptr) {
    why->push_back("the route table is structurally broken");
  }
  return sound_;
}

bool TableCheck::check(const LegalityCertificate& cert,
                       std::vector<std::string>* why) const {
  return sound(why) &&
         check_illegal_routes(*map_, labels_, illegal_, cert, why);
}

bool TableCheck::check(const DeadlockCertificate& cert,
                       std::vector<std::string>* why) const {
  return sound(why) && dependencies_.check(cert, why);
}

}  // namespace sanmap::analysis
