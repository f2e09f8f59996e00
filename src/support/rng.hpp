// Deterministic pseudo-random number generation.
//
// All randomized components (workload generators, property tests, solver
// perturbations) draw from this engine so that every experiment in the
// repository is reproducible from a seed.
#pragma once

#include <cstdint>
#include <string_view>

namespace luis {

/// A seed drawn from `name`'s bytes (an xor-multiply hash, stable across
/// platforms and runs), so a named input such as a corpus file draws the
/// same stream wherever it is replayed.
std::uint64_t name_seed(std::string_view name);

/// xoshiro256** by Blackman & Vigna: small, fast, and high quality.
/// Seeded through splitmix64 so that nearby seeds give unrelated streams.
class Rng {
public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ull) { reseed(seed); }

  void reseed(std::uint64_t seed);

  /// Uniform 64-bit value.
  std::uint64_t next_u64();

  /// Uniform in [0, bound). bound must be nonzero.
  std::uint64_t next_below(std::uint64_t bound);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t next_int(std::int64_t lo, std::int64_t hi);

  /// Uniform double in [0, 1).
  double next_double();

  /// Uniform double in [lo, hi).
  double next_double(double lo, double hi);

  /// Bernoulli trial with probability p.
  bool next_bool(double p = 0.5);

private:
  std::uint64_t state_[4];
};

} // namespace luis
