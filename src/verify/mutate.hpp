// Scenario mutators: the fuzzer's move set.
//
// Each mutation is a small, structurally valid edit of a ScenarioCase —
// grow the network, shrink it, rewire a cable, graft a subcluster onto a
// free port (the shape of the paper's Fig. 4/5 composition), extend the
// fault timeline, or switch the §2.3.1 collision model. Mutations never
// remove the mapper host and never violate the port invariants (they go
// through Topology's checked mutators), so every mutated case is a legal
// input to the oracle stack. All randomness flows through the caller's Rng:
// a (seed, trial) pair replays the exact mutation trail.
#pragma once

#include <string>

#include "common/rng.hpp"
#include "verify/scenario_case.hpp"

namespace sanmap::verify {

/// Applies one random mutation to the case, in place. Returns a short
/// human-readable description of what was done ("" when the drawn mutation
/// was inapplicable and the case is unchanged — callers simply draw again).
std::string mutate(ScenarioCase& c, common::Rng& rng);

/// Applies `count` effective mutations (re-drawing inapplicable ones, with
/// a bounded number of attempts). Returns the "; "-joined trail.
std::string mutate_n(ScenarioCase& c, int count, common::Rng& rng);

}  // namespace sanmap::verify
