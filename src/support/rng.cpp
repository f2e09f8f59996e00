#include "support/rng.hpp"

#include "support/diag.hpp"

namespace luis {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9E3779B97F4A7C15ull;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

} // namespace

std::uint64_t name_seed(std::string_view name) {
  std::uint64_t h = 1469598103934665603ull;
  for (const unsigned char c : name) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
  LUIS_ASSERT(bound != 0, "next_below requires a nonzero bound");
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next_u64();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::next_int(std::int64_t lo, std::int64_t hi) {
  LUIS_ASSERT(lo <= hi, "next_int requires lo <= hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next_u64()); // full range
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::next_double() {
  // 53 random bits scaled into [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::next_double(double lo, double hi) {
  return lo + (hi - lo) * next_double();
}

bool Rng::next_bool(double p) { return next_double() < p; }

} // namespace luis
