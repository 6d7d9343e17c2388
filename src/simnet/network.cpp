#include "simnet/network.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "simnet/fault_schedule.hpp"

namespace sanmap::simnet {

const char* to_string(DeliveryStatus status) {
  switch (status) {
    case DeliveryStatus::kDelivered:
      return "delivered";
    case DeliveryStatus::kIllegalTurn:
      return "illegal-turn";
    case DeliveryStatus::kNoSuchWire:
      return "no-such-wire";
    case DeliveryStatus::kHitHostTooSoon:
      return "hit-a-host-too-soon";
    case DeliveryStatus::kStrandedInNetwork:
      return "stranded-in-network";
    case DeliveryStatus::kSelfCollision:
      return "self-collision";
    case DeliveryStatus::kTrafficCollision:
      return "traffic-collision";
    case DeliveryStatus::kDropped:
      return "dropped";
    case DeliveryStatus::kCorrupted:
      return "corrupted";
  }
  return "?";
}

const char* to_string(CollisionModel model) {
  switch (model) {
    case CollisionModel::kCircuit:
      return "circuit";
    case CollisionModel::kCutThrough:
      return "cut-through";
    case CollisionModel::kPacket:
      return "packet";
  }
  return "?";
}

Network::Network(const topo::Topology& topo, CollisionModel collision,
                 CostModel cost, FaultModel faults, std::uint64_t fault_seed,
                 HardwareExtensions extensions)
    : topo_(&topo),
      collision_(collision),
      cost_(cost),
      faults_(faults),
      extensions_(extensions),
      rng_(fault_seed) {
  // Validate the fault knobs up front: a NaN or out-of-range probability
  // would otherwise silently bias every rng_.chance() draw for the lifetime
  // of the network.
  const auto valid = [](double p) {
    return std::isfinite(p) && p >= 0.0 && p <= 1.0;
  };
  SANMAP_CHECK_MSG(valid(faults.traffic_intensity) &&
                       faults.traffic_intensity < 1.0,
                   "FaultModel::traffic_intensity must be finite and in "
                   "[0, 1); got "
                       << faults.traffic_intensity);
  SANMAP_CHECK_MSG(valid(faults.drop_probability),
                   "FaultModel::drop_probability must be finite and in "
                   "[0, 1]; got "
                       << faults.drop_probability);
  SANMAP_CHECK_MSG(valid(faults.corrupt_probability),
                   "FaultModel::corrupt_probability must be finite and in "
                   "[0, 1]; got "
                       << faults.corrupt_probability);
}

namespace {

/// Key for a directed channel: wire id plus direction bit.
std::uint64_t channel_key(topo::WireId wire, bool a_to_b) {
  return (static_cast<std::uint64_t>(wire) << 1) |
         static_cast<std::uint64_t>(a_to_b);
}

}  // namespace

DeliveryResult Network::send(topo::NodeId src_host, const Route& route,
                             std::vector<topo::NodeId>* visited,
                             common::SimTime at) {
  SANMAP_CHECK_MSG(topo_->node_alive(src_host) && topo_->is_host(src_host),
                   "send() requires a live source host");
  SANMAP_CHECK_MSG(turns_in_range(route),
                   "route contains a turn outside [-7, +7]");

  // Nothing observes or perturbs a quiescent send hop by hop: no hook, no
  // trace, no schedule, and no rng draw (every probability is exactly 0).
  const bool quiescent =
      hook_ == nullptr && visited == nullptr && traffic_ == nullptr &&
      fault_schedule_ == nullptr && faults_.traffic_intensity == 0.0 &&
      faults_.drop_probability == 0.0 && faults_.corrupt_probability == 0.0;
  if (quiescent) {
    if (const auto result = resume(src_host, route)) {
      ++counters_.messages;
      tally(*result);
      return *result;
    }
  }
  return walk(src_host, route, visited, at);
}

void Network::tally(const DeliveryResult& result) {
  ++counters_.by_status[static_cast<std::size_t>(result.status)];
  counters_.wire_traversals += static_cast<std::uint64_t>(result.hops);
}

std::optional<DeliveryResult> Network::resume(topo::NodeId src_host,
                                              const Route& route) {
  // The forward turns: F for a loopback F · 0 · -reverse(F), else the
  // whole route.
  const std::size_t k = route.size();
  std::size_t forward = k;
  if (k % 2 == 1 && route[k / 2] == 0) {
    const std::size_t f = k / 2;
    std::size_t i = 0;
    while (i < f && route[f + 1 + i] == -route[f - 1 - i]) {
      ++i;
    }
    if (i == f) {
      forward = f;
    }
  }
  const bool loopback = forward < k;

  if (cached_.src != src_host || cached_.generation != topo_->generation()) {
    cached_.src = src_host;
    cached_.generation = topo_->generation();
    cached_.turns.clear();
    cached_.steps.clear();
    cached_.reused_at = kNoReuse;
    if (first_use_.size() < topo_->wire_capacity()) {
      first_use_.resize(topo_->wire_capacity(), ~std::uint32_t{0});
    }
  }

  const common::SimTime flit = cost_.flit_time();
  const common::SimTime per_hop = cost_.switch_latency + flit;
  const auto result = [&](DeliveryStatus status, topo::NodeId where,
                          int hops) {
    return DeliveryResult{status, where, hops, per_hop * hops,
                          topo::kInvalidNode};
  };

  if (cached_.steps.empty()) {
    const auto first = topo_->wire_at(src_host, 0);
    if (!first) {
      return result(DeliveryStatus::kNoSuchWire, src_host, 0);
    }
    const topo::PortRef far =
        topo_->wire(*first).opposite(topo::PortRef{src_host, 0});
    cached_.steps.push_back({*first, far.node, far.port});
    first_use_[*first] = 0;
  }

  // Hops 0..shared depend only on the turns before them, which the new
  // route shares with the cached walk.
  std::size_t shared = 0;
  const std::size_t common = std::min(forward, cached_.turns.size());
  while (shared < common && cached_.turns[shared] == route[shared]) {
    ++shared;
  }
  if (cached_.reused_at <= shared) {
    return std::nullopt;  // this walk crosses the reused wire too
  }
  cached_.turns.resize(shared);
  cached_.steps.resize(shared + 1);
  cached_.reused_at = kNoReuse;

  // Walk on from the head's arrival after hop h, as walk() would. No wire
  // is recrossed before hop h, so nothing has stalled or collided yet and
  // the elapsed time is per_hop per hop. A 0 turn sends the head straight
  // back over the wire it arrived on, so it is reached only as the pivot
  // of a loopback below: everywhere else the next hop is a reuse.
  std::size_t h = shared;
  while (h < forward) {
    const WalkStep at = cached_.steps[h];
    const int hops = static_cast<int>(h) + 1;
    if (topo_->is_host(at.node)) {
      return result(DeliveryStatus::kHitHostTooSoon, at.node, hops);
    }
    const Turn turn = route[h];
    const topo::Port out = at.entry + turn;
    if (out < 0 || out >= topo_->port_count(at.node)) {
      return result(DeliveryStatus::kIllegalTurn, at.node, hops);
    }
    const auto wire = topo_->wire_at(at.node, out);
    if (!wire) {
      return result(DeliveryStatus::kNoSuchWire, at.node, hops);
    }
    const topo::PortRef far =
        topo_->wire(*wire).opposite(topo::PortRef{at.node, out});
    cached_.turns.push_back(turn);
    cached_.steps.push_back({*wire, far.node, far.port});
    ++h;
    const std::uint32_t first = first_use_[*wire];
    if (first < h && cached_.steps[first].wire == *wire) {
      cached_.reused_at = h;
      return std::nullopt;
    }
    first_use_[*wire] = static_cast<std::uint32_t>(h);
  }

  const WalkStep end = cached_.steps[forward];
  const int hops = static_cast<int>(forward) + 1;
  const int message_flits = cost_.message_flits(static_cast<int>(k));
  if (!loopback) {
    // Routing flits exhausted: the message terminates where it stands.
    DeliveryResult done = result(topo_->is_switch(end.node)
                                     ? DeliveryStatus::kStrandedInNetwork
                                     : DeliveryStatus::kDelivered,
                                 end.node, hops);
    done.latency += flit * message_flits;
    return done;
  }
  if (topo_->is_host(end.node)) {
    return result(DeliveryStatus::kHitHostTooSoon, end.node, hops);
  }
  // The pivot bounces the head back out of its entry port, and -reverse(F)
  // retraces the forward walk port for port to the source. The return half
  // crosses each forward wire once in the opposite direction; the forward
  // wires are distinct, so every directed channel of the whole path is used
  // once and no collision model can object.
  DeliveryResult done = result(DeliveryStatus::kDelivered, src_host, 2 * hops);
  done.latency += flit * message_flits;
  done.bounce_switch = end.node;
  return done;
}

DeliveryResult Network::walk(topo::NodeId src_host, const Route& route,
                             std::vector<topo::NodeId>* visited,
                             common::SimTime at) {
  ++counters_.messages;
  if (hook_ != nullptr) {
    hook_->on_message_begin(src_host, route, at);
  }
  topo::NodeId bounce_switch = topo::kInvalidNode;
  const auto finish = [&](DeliveryStatus status, topo::NodeId where,
                          int hops,
                          common::SimTime latency) -> DeliveryResult {
    const DeliveryResult result{status, where, hops, latency, bounce_switch};
    tally(result);
    if (hook_ != nullptr) {
      hook_->on_message_end(result, counters_);
    }
    return result;
  };
  if (visited) {
    visited->clear();
    visited->push_back(src_host);
  }

  // A scheduled-dead source host cannot inject anything: its NIC is off and
  // the message never enters the network.
  if (fault_schedule_ != nullptr &&
      !fault_schedule_->node_up_at(src_host, at)) {
    return finish(DeliveryStatus::kDropped, topo::kInvalidNode, 0, {});
  }

  // End-to-end fault injection: decided up front so counters and rng
  // consumption stay deterministic regardless of path shape.
  const bool inject_drop = faults_.drop_probability > 0.0 &&
                           rng_.chance(faults_.drop_probability);
  const bool inject_corrupt = faults_.corrupt_probability > 0.0 &&
                              rng_.chance(faults_.corrupt_probability);

  const int message_flits =
      cost_.message_flits(static_cast<int>(route.size()));
  const common::SimTime flit = cost_.flit_time();
  const common::SimTime per_hop = cost_.switch_latency + flit;

  // Worm state. For each directed channel: the hop index at which the head
  // last crossed it (cut-through) / whether it is held (circuit). The table
  // is a flat array indexed by channel_key, epoch-stamped per message so
  // reuse costs one counter bump rather than a clear of the whole table.
  const auto channels =
      2 * static_cast<std::size_t>(topo_->wire_capacity());
  if (crossing_.size() < channels) {
    crossing_.resize(channels);
  }
  const std::uint64_t epoch = ++crossing_epoch_;
  common::SimTime stall{};  // extra time spent waiting on our own tail

  // Position: the message is about to leave `node` through the wire at
  // `out_port`.
  topo::NodeId node = src_host;
  topo::Port out_port = 0;
  int hop = 0;
  std::size_t next_turn = 0;

  for (;;) {
    // -- traverse the wire at (node, out_port) -----------------------------
    const auto wire_id = topo_->wire_at(node, out_port);
    if (!wire_id) {
      return finish(DeliveryStatus::kNoSuchWire, node, hop,
                    per_hop * hop + stall);
    }
    // Timed fault injection: a wire that the schedule has taken down (or
    // whose endpoint died) is indistinguishable from one that was never
    // installed — the head selects the port and finds nothing behind it.
    if (fault_schedule_ != nullptr &&
        !fault_schedule_->wire_up_at(*topo_, *wire_id,
                                     at + per_hop * hop + stall)) {
      return finish(DeliveryStatus::kNoSuchWire, node, hop,
                    per_hop * hop + stall);
    }
    const topo::Wire& wire = topo_->wire(*wire_id);
    const topo::PortRef here{node, out_port};
    const topo::PortRef far = wire.opposite(here);
    const bool a_to_b = (here == wire.a);

    // Foreign traffic on this channel?
    if (faults_.traffic_intensity > 0.0 &&
        rng_.chance(faults_.traffic_intensity)) {
      // The worm blocks behind a foreign worm; the switch eventually forces
      // a forward reset and the message is destroyed.
      return finish(DeliveryStatus::kTrafficCollision, node, hop,
                    per_hop * hop + stall + cost_.blocked_port_timeout);
    }
    if (traffic_ != nullptr) {
      // Scheduled background worms: wait behind them; the forward reset
      // destroys us only if the wait exceeds the blocked-port timeout.
      const common::SimTime arrival = at + per_hop * hop + stall;
      const common::SimTime free =
          traffic_->free_at(*wire_id, a_to_b, arrival);
      const common::SimTime wait = free - arrival;
      if (wait > cost_.blocked_port_timeout) {
        return finish(DeliveryStatus::kTrafficCollision, node, hop,
                      per_hop * hop + stall + cost_.blocked_port_timeout);
      }
      stall += wait;
    }

    // Self-collision per the active model.
    const auto key = static_cast<std::size_t>(channel_key(*wire_id, a_to_b));
    ChannelCrossing& cell = crossing_[key];
    if (cell.epoch == epoch && collision_ != CollisionModel::kPacket) {
      if (collision_ == CollisionModel::kCircuit) {
        // The circuit holds every channel of the whole path at once; a
        // second use can never be granted.
        return finish(DeliveryStatus::kSelfCollision, node, hop,
                      per_hop * hop + stall + cost_.deadlock_break);
      }
      const int gap = hop - cell.hop;
      const auto natural_drain = per_hop * gap;
      const auto worm_length = flit * message_flits;
      if (natural_drain < worm_length) {
        // The tail has not drained past this channel yet. The worm can
        // still compress into the per-port buffering accumulated over the
        // gap; if it does not fit, it deadlocks on itself.
        const long buffer_capacity =
            static_cast<long>(gap) * cost_.port_buffer_flits;
        if (message_flits > buffer_capacity) {
          return finish(DeliveryStatus::kSelfCollision, node, hop,
                        per_hop * hop + stall + cost_.deadlock_break);
        }
        stall += worm_length - natural_drain;
      }
    }
    cell.epoch = epoch;
    cell.hop = hop;
    ++hop;
    if (hook_ != nullptr) {
      hook_->on_hop(*wire_id, here, far);
    }
    node = far.node;
    if (visited) {
      visited->push_back(node);
    }

    // -- the message is now entering `node` via far.port -------------------
    if (next_turn == route.size()) {
      // Routing flits exhausted: the message terminates here.
      const auto latency = per_hop * hop + flit * message_flits + stall;
      if (topo_->is_switch(node)) {
        return finish(DeliveryStatus::kStrandedInNetwork, node, hop, latency);
      }
      if (inject_drop) {
        return finish(DeliveryStatus::kDropped, node, hop, latency);
      }
      if (inject_corrupt) {
        return finish(DeliveryStatus::kCorrupted, node, hop, latency);
      }
      return finish(DeliveryStatus::kDelivered, node, hop, latency);
    }
    if (topo_->is_host(node)) {
      return finish(DeliveryStatus::kHitHostTooSoon, node, hop,
                    per_hop * hop + stall);
    }
    const Turn turn = route[next_turn++];
    if (turn == 0 && bounce_switch == topo::kInvalidNode) {
      bounce_switch = node;
    }
    out_port = far.port + turn;
    if (out_port < 0 || out_port >= topo_->port_count(node)) {
      return finish(DeliveryStatus::kIllegalTurn, node, hop,
                    per_hop * hop + stall);
    }
  }
}

}  // namespace sanmap::simnet
