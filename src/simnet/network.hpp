// The wormhole network simulator.
//
// Executes source-routed messages over a Topology with the exact semantics
// of the paper's §2.2: relative, non-modular port addressing; the four
// failure modes (ILLEGAL TURN, NO SUCH WIRE, HIT A HOST TOO SOON, STRANDED
// IN NETWORK); and self-collision per §2.3.1's two models:
//
//  * Circuit: the whole message path (including a loopback probe's return
//    leg) holds its directed channels simultaneously, so any second use of
//    a directed channel is a collision. This reproduces both of the paper's
//    circuit rules: host-probes fail on same-direction reuse, switch-probes
//    fail on reuse in either direction (their return leg turns an opposite-
//    direction reuse into a same-direction conflict).
//
//  * Cut-through: channels are released as the tail passes. Reusing a
//    channel `gap` hops later succeeds if the tail has already drained
//    (gap * per-hop time >= message length in flit times), or if the worm
//    can compress into the per-port buffering between the two uses
//    (message flits <= gap * port buffer); otherwise the worm deadlocks on
//    itself and the hardware destroys it after the 50 ms deadlock break.
//    With the paper's constants (550 ns/hop, 108 B/port, short probes),
//    probes essentially never self-collide — which is why the paper calls
//    this model's failures "may or may not".
//
// Cross-traffic and fault injection are modeled per §6's future-work
// experiment: each channel traversal independently encounters foreign
// traffic with a configurable probability, and messages can be dropped or
// corrupted end-to-end.
//
// The plain hop-by-hop walk is the reference semantics. A quiescent send —
// no hook, no `visited` trace, no fault or traffic schedule, all three
// FaultModel probabilities exactly 0 — may instead resume from the forward
// walk of the previous quiescent send (same source host, same
// Topology::generation()): it walks only the hops past the longest common
// prefix of the two routes' forward turns, delivers a loopback
// F · 0 · -reverse(F) over a wire-simple forward walk in closed form, and
// falls back to the plain walk whenever the walk reuses a wire, the only
// place collisions and stalls arise. Results and counters are identical
// either way (DESIGN.md §14.1).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/sim_time.hpp"
#include "simnet/cost_model.hpp"
#include "simnet/route.hpp"
#include "simnet/traffic.hpp"
#include "topology/topology.hpp"

namespace sanmap::simnet {

class FaultSchedule;

enum class DeliveryStatus : std::uint8_t {
  kDelivered,
  kIllegalTurn,
  kNoSuchWire,
  kHitHostTooSoon,
  kStrandedInNetwork,
  kSelfCollision,     // worm stepped on its own tail
  kTrafficCollision,  // blocked by foreign traffic, forward-reset killed it
  kDropped,           // fault injection: message lost
  kCorrupted,         // fault injection: CRC failure at the receiver
};
inline constexpr std::size_t kNumDeliveryStatuses = 9;

const char* to_string(DeliveryStatus status);

struct DeliveryResult {
  DeliveryStatus status = DeliveryStatus::kDelivered;
  /// Where the message ended up: the receiving host for kDelivered, the
  /// node at which the message died otherwise (kInvalidNode if it never
  /// left the source).
  topo::NodeId destination = topo::kInvalidNode;
  /// Wires traversed before termination.
  int hops = 0;
  /// Time the message spent in the network (delivery latency for
  /// kDelivered; time until hardware destroyed the worm otherwise).
  common::SimTime latency{};
  /// The switch at which the first 0-turn (bounce off the entry port) was
  /// executed; kInvalidNode if none. This is pure simulator instrumentation
  /// — probe layers may only surface it when the network is configured
  /// with self-identifying switches (the §6 architectural extension).
  topo::NodeId bounce_switch = topo::kInvalidNode;

  [[nodiscard]] bool delivered() const {
    return status == DeliveryStatus::kDelivered;
  }
};

enum class CollisionModel : std::uint8_t {
  kCircuit,
  kCutThrough,
  /// Store-and-forward packet routing: messages may reuse channels freely
  /// (§1.2's baseline regime, where the mapping algorithm is "trivially
  /// correct" and search depth 2D+1 suffices, §3.2.2). Not Myrinet — kept
  /// for the taxonomy and for the packet-superset property tests.
  kPacket,
};

const char* to_string(CollisionModel model);

/// Parses a to_string name ("circuit", "cut-through", "packet"); nullopt
/// on anything else.
std::optional<CollisionModel> parse_collision(std::string_view name);

/// Optional hardware capabilities beyond stock Myrinet (§6 future work).
struct HardwareExtensions {
  /// Switches stamp a unique identifier into probes that bounce off them
  /// ("architectural support for self-identifying switches"). When false,
  /// probe layers must not look at DeliveryResult::bounce_switch.
  bool self_identifying_switches = false;
  /// Hosts read and answer messages that HIT A HOST TOO SOON instead of
  /// discarding them (the firmware change §6 proposes for randomized
  /// mapping), reporting how many routing flits were consumed.
  bool hosts_answer_early_hits = false;
};

/// Fault / cross-traffic injection knobs. All probabilities in [0, 1].
struct FaultModel {
  /// Probability that any single channel traversal collides with foreign
  /// application traffic (the §6 cross-traffic experiment).
  double traffic_intensity = 0.0;
  /// End-to-end loss probability per message.
  double drop_probability = 0.0;
  /// End-to-end corruption probability per message (CRC discards it).
  double corrupt_probability = 0.0;
};

struct NetworkCounters;

/// Observer interface for verification instrumentation. The network reports
/// every message's lifecycle — injection, each wire crossing, termination —
/// so an external checker (src/verify's conservation oracle) can enforce
/// accounting invariants without a side channel into the forwarding loop.
/// Hooks see exactly what the hardware did; they must not mutate anything.
class InvariantHook {
 public:
  virtual ~InvariantHook() = default;

  /// A message is about to be injected at `src_host` at instant `at`.
  virtual void on_message_begin(topo::NodeId src_host, const Route& route,
                                common::SimTime at) = 0;

  /// The worm's head crossed `wire`, leaving the port at `from` and
  /// arriving at `to` (the two ends of the wire; for a self-loop both name
  /// the same node).
  virtual void on_hop(topo::WireId wire, topo::PortRef from,
                      topo::PortRef to) = 0;

  /// The message terminated with `result`; `counters` is the network's
  /// running tally *after* this message was accounted.
  virtual void on_message_end(const DeliveryResult& result,
                              const NetworkCounters& counters) = 0;
};

/// Per-status message counters plus totals.
struct NetworkCounters {
  std::array<std::uint64_t, kNumDeliveryStatuses> by_status{};
  std::uint64_t messages = 0;
  std::uint64_t wire_traversals = 0;

  friend bool operator==(const NetworkCounters&,
                         const NetworkCounters&) = default;

  [[nodiscard]] std::uint64_t of(DeliveryStatus status) const {
    return by_status[static_cast<std::size_t>(status)];
  }
};

/// The simulator. Holds a reference to the topology (not owned); the
/// topology may be mutated between sends (dynamic reconfiguration) but not
/// during one.
class Network {
 public:
  explicit Network(const topo::Topology& topo,
                   CollisionModel collision = CollisionModel::kCutThrough,
                   CostModel cost = {}, FaultModel faults = {},
                   std::uint64_t fault_seed = 1,
                   HardwareExtensions extensions = {});

  /// Injects a source-routed message at `src_host` (must be a live host).
  /// If `visited` is non-null it receives the node sequence of the message
  /// path (starting with src_host). `at` is the injection instant on the
  /// virtual clock — only meaningful when a TrafficSchedule is attached
  /// (channel occupancy is time-dependent).
  DeliveryResult send(topo::NodeId src_host, const Route& route,
                      std::vector<topo::NodeId>* visited = nullptr,
                      common::SimTime at = {});

  /// Attaches interval-based background traffic (not owned; may be null).
  /// Worms wait behind busy channels and die after the blocked-port
  /// timeout, exactly like the Bernoulli model's collisions but
  /// time-correlated.
  void attach_traffic(const TrafficSchedule* schedule) {
    traffic_ = schedule;
  }

  /// Attaches a timed fault schedule (not owned; may be null). Wire state is
  /// sampled at the instant the worm's head reaches each wire (derived from
  /// `at` plus per-hop latency); a downed wire manifests as NO SUCH WIRE —
  /// the paper's own failure mode — and a dead source host as kDropped.
  void attach_faults(const FaultSchedule* schedule) {
    fault_schedule_ = schedule;
  }
  [[nodiscard]] const FaultSchedule* fault_schedule() const {
    return fault_schedule_;
  }

  /// Attaches an invariant hook (not owned; may be null to detach). The
  /// hook observes every subsequent send().
  void attach_hook(InvariantHook* hook) { hook_ = hook; }
  [[nodiscard]] InvariantHook* hook() const { return hook_; }

  [[nodiscard]] const topo::Topology& topology() const { return *topo_; }
  [[nodiscard]] const CostModel& cost() const { return cost_; }
  [[nodiscard]] CollisionModel collision_model() const { return collision_; }
  [[nodiscard]] const FaultModel& faults() const { return faults_; }
  [[nodiscard]] const HardwareExtensions& extensions() const {
    return extensions_;
  }

  [[nodiscard]] const NetworkCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = NetworkCounters{}; }

 private:
  /// The hop-by-hop walk: the reference semantics of every send.
  DeliveryResult walk(topo::NodeId src_host, const Route& route,
                      std::vector<topo::NodeId>* visited, common::SimTime at);
  /// The quiescent fast path: the result of `route` resumed from the cached
  /// walk, or nullopt when the walk reuses a wire and only walk() can tell
  /// what happens. Touches no counter.
  std::optional<DeliveryResult> resume(topo::NodeId src_host,
                                       const Route& route);
  /// Adds a finished message's status and wire crossings to counters_.
  void tally(const DeliveryResult& result);

  const topo::Topology* topo_;
  CollisionModel collision_;
  CostModel cost_;
  FaultModel faults_;
  HardwareExtensions extensions_;
  const TrafficSchedule* traffic_ = nullptr;
  const FaultSchedule* fault_schedule_ = nullptr;
  InvariantHook* hook_ = nullptr;
  common::Rng rng_;
  NetworkCounters counters_;

  /// Scratch for send()'s worm state, reused across messages so the hot
  /// path performs no per-send allocation: one slot per directed channel
  /// (2 * wire capacity), epoch-stamped so "clearing" between messages is a
  /// single counter bump instead of a table wipe. Grown lazily because the
  /// topology may gain wires between sends.
  struct ChannelCrossing {
    std::uint64_t epoch = 0;
    int hop = 0;
  };
  std::vector<ChannelCrossing> crossing_;
  std::uint64_t crossing_epoch_ = 0;

  /// resume()'s memory: the forward walk of the previous quiescent send
  /// from `src` over the topology at `generation`. steps[h] is hop h: the
  /// wire it crossed and the (node, entry port) the head reached; turns[h]
  /// is the turn taken at steps[h] to reach steps[h + 1], so a non-empty
  /// walk has one more step than turns. `reused_at` is the first hop that
  /// recrossed a wire already in the walk; the walk ends there.
  struct WalkStep {
    topo::WireId wire = topo::kInvalidWire;
    topo::NodeId node = topo::kInvalidNode;
    topo::Port entry = 0;
  };
  struct CachedWalk {
    std::uint64_t generation = 0;
    topo::NodeId src = topo::kInvalidNode;
    Route turns;
    std::vector<WalkStep> steps;
    std::size_t reused_at = kNoReuse;
  };
  static constexpr std::size_t kNoReuse = static_cast<std::size_t>(-1);
  CachedWalk cached_;
  /// Per wire: the hop at which the cached walk first crossed it. Stale
  /// entries are harmless: one counts only if steps[hop] names the wire.
  std::vector<std::uint32_t> first_use_;
};

}  // namespace sanmap::simnet
