// Source routes: sequences of relative turns (§2.2).
//
// A routing address is a string a1...ak over {-7..+7}. Each turn selects the
// output port p_in + a_i of the switch the message is entering — addition is
// NOT modular; an out-of-range result is an ILLEGAL TURN and the hardware
// destroys the message. Turn 0 (bounce back out the entry port) is legal and
// is the pivot of switch probes.
#pragma once

#include <string>
#include <vector>

#include "topology/types.hpp"

namespace sanmap::simnet {

/// One relative turn, in [-7, +7].
using Turn = int;

/// A source route: the message's routing flits.
using Route = std::vector<Turn>;

inline constexpr Turn kMinTurn = -(topo::kSwitchPorts - 1);
inline constexpr Turn kMaxTurn = topo::kSwitchPorts - 1;

/// "+1.-3.0.+3.-1" — human-readable route form used in logs and tests.
std::string to_string(const Route& route);

/// Reverses a route and negates every turn: the return path of a probe.
Route reversed(const Route& route);

/// route + [turn].
Route extended(const Route& route, Turn turn);

/// The loopback switch-probe route of §2.3: a1..ak 0 -ak..-a1.
Route loopback_probe(const Route& prefix);

/// The same route written into `out`, reusing its storage: the probe
/// engine's per-probe form, which allocates only when `out` must grow.
void loopback_probe_into(const Route& prefix, Route& out);

/// True when every turn is within [-7, +7] (structural validity only; the
/// network decides whether the route survives).
bool turns_in_range(const Route& route);

}  // namespace sanmap::simnet
