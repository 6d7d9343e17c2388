// The probe layer of §2.3.
//
// A *switch-probe* for prefix a1..ak sends the loopback route
// a1..ak 0 -ak..-a1; receiving it back proves an output port of a switch
// k hops away connects to another switch. A *host-probe* sends a1..ak; a
// reply names the host at the end of the path. A *probe* (the response map
// R) combines the two: "switch", a unique host name, or "nothing".
//
// The engine also owns the mapper-side virtual clock: a responded probe
// costs send/receive software overheads plus network round-trip latency; an
// unanswered probe costs the (longer) probe timeout — the paper calls this
// out explicitly under Figure 6.
//
// Two system behaviours from the evaluation live here too:
//  * participation (Figure 9): hosts not running a mapper daemon never
//    answer host-probes;
//  * election mode (Figure 7): in leader-election operation every host
//    starts out actively mapping and yields when first probed by the
//    eventual winner, so the winner's early host-probes time out once per
//    contender.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include <iosfwd>

#include "common/sim_time.hpp"
#include "simnet/network.hpp"

namespace sanmap::probe {

/// Outcome of the combined probe R (§2.3).
enum class ResponseKind : std::uint8_t { kSwitch, kHost, kNothing };

const char* to_string(ResponseKind kind);

struct Response {
  ResponseKind kind = ResponseKind::kNothing;
  /// Unique host identity (kHost only).
  std::string host_name;
};

/// Which of the two probe messages is sent first when both may be needed.
/// The second is only sent when the first fails — probes are expensive.
enum class ProbeOrder : std::uint8_t {
  kSwitchFirst,  // default: matches the paper's switch-probes >= host-probes
  kHostFirst,
  kBoth,  // always send both (no short-circuit); the naive baseline
};

struct ProbeOptions {
  ProbeOrder order = ProbeOrder::kSwitchFirst;

  /// Hosts that run a (master or passive) mapper daemon and therefore
  /// answer host-probes. Empty means every live host participates.
  std::vector<topo::NodeId> participants;

  /// Extra attempts after a probe timeout (0 = the paper's fire-once
  /// discipline). On a quiescent network retries never trigger; under
  /// cross-traffic they recover destroyed probes at the price of extra
  /// messages and timeouts — the obvious "conditioning" knob for §6's
  /// mapping-under-traffic problem.
  ///
  /// The retry contract, identical for every probe category (switch, host,
  /// echo, identifying, wild): a logical probe makes `retries + 1` total
  /// attempts, stopping at the first answered one. Each attempt counts as a
  /// sent probe; every *failed* attempt is charged send_overhead +
  /// probe_timeout, and the answered attempt (if any) is charged its real
  /// round trip. A probe that reaches a non-participating host is answered
  /// by nobody but is not retried — resending cannot wake a daemon that is
  /// not running.
  int retries = 0;

  /// Election mode: every participant begins as an active contender. The
  /// first host-probe that reaches a contender is delayed by arbitration
  /// (the contender is busy running its own mapper; it compares the carried
  /// interface addresses, yields to the higher one, and answers late).
  bool election = false;

  /// Extra latency charged once per contender for that arbitration.
  common::SimTime election_arbitration = common::SimTime::from_us(500.0);

  /// Random start offset charged once in election mode (the winner does not
  /// begin probing at t=0); mean of an exponential draw.
  common::SimTime election_start_mean = common::SimTime::from_us(2000.0);

  std::uint64_t election_seed = 99;

  /// Per-probe multiplicative cost noise in [0, jitter], modeling OS
  /// scheduling and interrupt variance on the mapper host. 0 = exactly
  /// deterministic timing. Benches that report min/avg/max over repeated
  /// runs (the paper's Figure 7) set this to a few percent with a per-run
  /// seed.
  double jitter = 0.0;
  std::uint64_t jitter_seed = 7;

  /// Rare long stalls (page faults, daemon activity): each probe is hit
  /// with probability stall_probability by an extra delay uniform in
  /// [0, stall_max]. Unlike `jitter`, stalls do not average out over a run,
  /// so repeated runs show the min/avg/max spread of the paper's Figure 7.
  /// Only active when jitter > 0 (i.e. when timing noise is requested).
  double stall_probability = 0.004;
  common::SimTime stall_max = common::SimTime::ms(5);

  /// Record every probe sent (exact route, category, outcome) for offline
  /// analysis and replay validation.
  bool record_transcript = false;
};

/// One recorded probe. `category` is 's' (switch/loopback), 'h' (host),
/// 'e' (echo/comparison), 'i' (identifying), or 'w' (wild). One entry is
/// recorded per *logical* probe with its final outcome — retried attempts
/// are not recorded individually (a transcript is a statement about the
/// network, not about the retry schedule). For the same reason `answered`
/// records the *network-level* outcome: whether the route finds a
/// responder on a quiescent network with every host answering (hardware
/// loopback for s/e/i, a live host for h/w). A probe consumed by a
/// non-participating host therefore records answered=true with the host's
/// name even though the session saw silence — participation is session
/// state, not network state, and transcript_replays is documented to
/// replay with all hosts answering.
struct TranscriptEntry {
  simnet::Route route;
  char category = '?';
  bool answered = false;
  std::string response;  // host name (h/w) when answered
};

struct ProbeCounters {
  std::uint64_t host_probes = 0;
  std::uint64_t host_hits = 0;
  std::uint64_t switch_probes = 0;
  std::uint64_t switch_hits = 0;
  /// §6 extensions: wild probes (randomized mapping) and identifying
  /// switch-probes.
  std::uint64_t wild_probes = 0;
  std::uint64_t wild_hits = 0;

  friend bool operator==(const ProbeCounters&, const ProbeCounters&) =
      default;

  [[nodiscard]] std::uint64_t total() const {
    return host_probes + switch_probes + wild_probes;
  }
  [[nodiscard]] std::uint64_t hits() const {
    return host_hits + switch_hits + wild_hits;
  }
  [[nodiscard]] double host_ratio() const {
    return host_probes == 0
               ? 0.0
               : static_cast<double>(host_hits) /
                     static_cast<double>(host_probes);
  }
  [[nodiscard]] double switch_ratio() const {
    return switch_probes == 0
               ? 0.0
               : static_cast<double>(switch_hits) /
                     static_cast<double>(switch_probes);
  }
};

/// Sends probes from one mapper host into a Network and accounts their cost.
class ProbeEngine {
 public:
  /// `mapper_host` must be a live host of net's topology.
  ProbeEngine(simnet::Network& net, topo::NodeId mapper_host,
              ProbeOptions options = {});

  /// The response map R for the prefix a1..ak, per the configured order.
  Response probe(const simnet::Route& prefix);

  /// Sends only the loopback switch-probe; true when it returns.
  bool switch_probe(const simnet::Route& prefix);

  /// Sends an arbitrary route as-is and reports whether it came back to
  /// this mapper (the primitive behind comparison/alignment probes).
  /// Counted in the switch-probe category.
  bool echo_probe(const simnet::Route& route);

  /// Sends only the host-probe; the responding host's name, if any.
  std::optional<std::string> host_probe(const simnet::Route& prefix);

  /// §6 extension: like switch_probe, but when the network's switches are
  /// self-identifying the returned loopback carries the identity of the
  /// switch the probe bounced off. Requires
  /// HardwareExtensions::self_identifying_switches.
  std::optional<topo::NodeId> identifying_switch_probe(
      const simnet::Route& prefix);

  /// §6 extension: a "wild" probe for randomized mapping. The route is
  /// fired as-is; any host it reaches — including one hit with routing
  /// flits remaining — reads the message and answers with its name and the
  /// number of turns that were consumed getting there. Requires
  /// HardwareExtensions::hosts_answer_early_hits.
  struct WildResponse {
    std::string host_name;
    /// Turns consumed before arrival: the message used the route prefix
    /// route[0 .. consumed_turns).
    int consumed_turns = 0;
  };
  std::optional<WildResponse> wild_probe(const simnet::Route& route);

  [[nodiscard]] topo::NodeId mapper_host() const { return mapper_host_; }
  [[nodiscard]] const ProbeCounters& counters() const { return counters_; }
  /// The configured probe order (ProbePipeline replicates the same
  /// short-circuit logic when it chains the two probe legs).
  [[nodiscard]] ProbeOrder order() const { return options_.order; }
  /// Mapper-side virtual time consumed so far (probe costs + election start
  /// offset). Does NOT include the clock base.
  [[nodiscard]] common::SimTime elapsed() const { return elapsed_; }
  /// Adds non-probe mapper work (e.g. computation phases) to the clock.
  void charge(common::SimTime extra) { elapsed_ += extra; }
  /// Replaces the clock outright. Reserved for probe::ProbePipeline, which
  /// executes a batch serially (so counters, responses, the transcript and
  /// every RNG draw are bit-identical to the serial engine) and then
  /// substitutes the batch's event-queue makespan for the serial sum.
  void set_elapsed(common::SimTime t) { elapsed_ = t; }

  /// Epoch of this probing session on the network's virtual clock: probes
  /// are injected at clock_base() + elapsed(). reset() deliberately keeps
  /// the base, so a multi-pass session (e.g. the robust mapper re-running
  /// BerkeleyMapper, whose run() resets the engine) can keep network time —
  /// and hence a FaultSchedule — advancing monotonically across passes
  /// while each pass still reports its own elapsed() from zero.
  void set_clock_base(common::SimTime base) { clock_base_ = base; }
  [[nodiscard]] common::SimTime clock_base() const { return clock_base_; }
  /// The absolute instant the next probe would be injected at.
  [[nodiscard]] common::SimTime now() const { return clock_base_ + elapsed_; }

  /// Adjusts the retry budget mid-session (adaptive conditioning: the
  /// robust mapper raises it when it detects ambient probe losses).
  /// Applies from the next probe; survives reset().
  void set_retries(int retries) { options_.retries = retries; }
  [[nodiscard]] int retries() const { return options_.retries; }

  /// Starts a fresh pass: clears counters, the transcript and the pass
  /// clock (elapsed()), and reseeds the jitter stream. Session-lifetime
  /// state survives: the clock base (see set_clock_base), yielded election
  /// contenders, and the already-charged start offset — contenders are
  /// physical daemons that stay yielded once suppressed, so a multi-pass
  /// session pays per-contender arbitration and the delayed start once,
  /// not once per pass.
  void reset();

  [[nodiscard]] simnet::Network& network() { return *net_; }

  /// The recorded probe transcript (empty unless record_transcript).
  [[nodiscard]] const std::vector<TranscriptEntry>& transcript() const {
    return transcript_;
  }
  /// Writes the transcript as one line per probe:
  /// "<category> <answered> <response|-> <route>".
  void write_transcript(std::ostream& os) const;

 private:
  [[nodiscard]] bool participates(topo::NodeId host) const;
  /// Adds a probe's cost to the clock, with jitter applied.
  void charge_probe(common::SimTime cost);
  /// The shared retry loop behind every probe category (the ProbeOptions
  /// "retries + 1 total attempts" contract): sends `route` until `accepted`
  /// returns true or the attempts run out. Each attempt increments `sent`;
  /// each rejected attempt is charged send_overhead + probe_timeout.
  /// Returns the first accepted DeliveryResult, or nullopt.
  template <typename Accept>
  std::optional<simnet::DeliveryResult> send_with_retries(
      const simnet::Route& route, std::uint64_t& sent, Accept&& accepted);

  simnet::Network* net_;
  topo::NodeId mapper_host_;
  ProbeOptions options_;
  ProbeCounters counters_;
  common::SimTime elapsed_{};
  common::SimTime clock_base_{};
  /// Election: contenders that have not yet yielded to the winner. Armed
  /// once at construction; yielding is permanent for the engine's lifetime
  /// (reset() keeps it — see reset()'s comment).
  std::vector<bool> unyielded_;
  /// Election: the winner's delayed start, drawn once per session and
  /// charged by reset() until the first probe is sent.
  common::SimTime election_start_offset_{};
  /// True once any probe attempt has been sent in this engine's lifetime.
  bool session_started_ = false;
  common::Rng election_rng_;
  common::Rng jitter_rng_;
  std::vector<TranscriptEntry> transcript_;
  /// The loopback route of the switch probe in flight, reused across
  /// probes: once it has grown, only a recorded transcript copies it.
  simnet::Route loopback_;
};

/// Re-sends every transcript probe into `net` (quiescent, all hosts
/// answering) and checks each outcome still holds — the offline
/// consistency check between a recorded mapping session and a topology.
bool transcript_replays(const std::vector<TranscriptEntry>& transcript,
                        simnet::Network& net, topo::NodeId mapper_host);

}  // namespace sanmap::probe
