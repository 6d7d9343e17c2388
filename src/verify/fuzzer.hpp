// The corpus-driven differential fuzzer.
//
// Each trial derives an independent sub-seed from (seed, trial), picks a
// corpus case, applies a random number of mutations (verify/mutate.hpp),
// and runs the full oracle stack (verify/oracles.hpp) on the result. A
// violating case is shrunk by the minimizer and written out as a
// self-contained .sancase repro that `sanfuzz --replay` and the corpus
// regression test consume. Everything is a pure function of the seed:
// re-running with the same seed and corpus replays every trial exactly.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "verify/minimize.hpp"
#include "verify/mutate.hpp"
#include "verify/oracles.hpp"
#include "verify/scenario_case.hpp"

namespace sanmap::verify {

/// The per-trial seed: splitmix64 over the base seed and trial index, so
/// any failing trial can be replayed alone ("--seed S --trials 1 resumes at
/// trial T" is wrong; the pair (S, T) is printed instead and re-derives the
/// identical case).
std::uint64_t case_seed(std::uint64_t seed, int trial);

/// The built-in seed corpus (~10 cases): the paper's Fig. 4 subcluster C, a
/// small multi-uplink fat tree, a switch-bridge tail with F != empty, a
/// flapping link, a circuit-switched star, hypercube/mesh/random-irregular
/// classics, a timed bridge cut, and a parallel-cable + loopback merge
/// stress. These are the same cases serialized under tests/corpus/.
std::vector<ScenarioCase> builtin_corpus();

struct FuzzOptions {
  int trials = 100;
  std::uint64_t seed = 1;
  /// Mutations per trial are drawn uniformly from [1, max_mutations].
  int max_mutations = 4;
  OracleOptions oracle;
  /// Shrink violating cases before reporting them.
  bool minimize_failures = true;
  int minimize_max_checks = 400;
  /// Directory for .sancase repro files ("" = do not write artifacts).
  /// Created if missing.
  std::string artifacts_dir;
  /// Seed cases; empty uses builtin_corpus().
  std::vector<ScenarioCase> corpus;
  /// Optional per-event progress sink (sanfuzz wires this to stdout).
  std::function<void(const std::string& line)> progress;
};

struct FuzzFailure {
  int trial = 0;
  std::uint64_t seed = 0;       // the base seed
  std::uint64_t case_seed = 0;  // the derived per-trial seed
  std::string mutation_trail;
  ScenarioCase original;
  /// The shrunk repro (== original when minimization is off or exhausted
  /// without shrinking).
  ScenarioCase minimized;
  OracleReport report;
  /// Repro file path ("" when artifacts are disabled).
  std::string artifact_path;
};

struct FuzzReport {
  int trials = 0;
  std::vector<FuzzFailure> failures;
  /// Aggregated skip reasons across all trials (oracle coverage evidence).
  std::vector<std::pair<std::string, int>> skip_counts;

  [[nodiscard]] bool ok() const { return failures.empty(); }
};

/// Runs the campaign. Throws std::runtime_error only on environmental
/// failure (unwritable artifacts directory); oracle violations are data.
FuzzReport fuzz(const FuzzOptions& options);

/// Replays one case through the oracle stack — the engine behind
/// `sanfuzz --replay` and the corpus regression test.
OracleReport replay_case(const ScenarioCase& c,
                         const OracleOptions& options = {});

}  // namespace sanmap::verify
