// Deterministic random number generation for sanmap.
//
// All randomness in the library flows through Rng so that every experiment is
// reproducible from an explicit 64-bit seed. The generator is xoshiro256++
// seeded via SplitMix64, which is fast, has a 2^256-1 period, and passes
// BigCrush — more than adequate for workload generation and tie-breaking.
#pragma once

#include <array>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/check.hpp"

namespace sanmap::common {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
constexpr std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// xoshiro256++ deterministic pseudo-random generator.
///
/// Satisfies UniformRandomBitGenerator, so it can be handed to <random>
/// distributions, but the common cases (bounded ints, reals, shuffle, pick)
/// are provided directly with stable, implementation-independent semantics.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5eed5eed5eedULL) { reseed(seed); }

  /// Re-initializes the state from a 64-bit seed via SplitMix64.
  void reseed(std::uint64_t seed) {
    std::uint64_t sm = seed;
    for (auto& word : state_) {
      word = splitmix64(sm);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() {
    return std::numeric_limits<result_type>::max();
  }

  result_type operator()() { return next(); }

  /// Next raw 64-bit value.
  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be positive. Uses Lemire's
  /// multiply-shift rejection method for an unbiased result.
  std::uint64_t below(std::uint64_t bound) {
    SANMAP_CHECK(bound > 0);
    std::uint64_t x = next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in the inclusive range [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi) {
    SANMAP_CHECK(lo <= hi);
    const auto span =
        static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
    // span == 0 means the full 64-bit range.
    const std::uint64_t offset = (span == 0) ? next() : below(span);
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) + offset);
  }

  /// Uniform real in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Bernoulli trial with success probability p.
  bool chance(double p) { return uniform() < p; }

  /// Exponentially distributed value with the given mean (for Poisson
  /// inter-arrival times in the traffic generator).
  double exponential(double mean);

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& items) {
    for (std::size_t i = items.size(); i > 1; --i) {
      const std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(items[i - 1], items[j]);
    }
  }

  /// Uniformly chosen element of a non-empty range.
  template <typename T>
  const T& pick(std::span<const T> items) {
    SANMAP_CHECK(!items.empty());
    return items[static_cast<std::size_t>(below(items.size()))];
  }
  template <typename T>
  const T& pick(const std::vector<T>& items) {
    return pick(std::span<const T>(items));
  }

  /// Derives an independent child generator; useful for fanning one seed out
  /// to many deterministic sub-experiments.
  Rng fork() { return Rng(next()); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
};

}  // namespace sanmap::common
