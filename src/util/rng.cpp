// wsnlint:hot-path — part of the per-config inner loop; the zero-alloc
// invariant (docs/PERF.md) is linted here and measured by perf_sweep.
#include "util/rng.h"

#include <cmath>
#include <numbers>

namespace wsnlink::util {

namespace {

constexpr std::uint64_t RotL(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

std::uint64_t SplitMix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::uint64_t HashLabel(std::string_view label) noexcept {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : label) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

Rng::Rng(std::uint64_t seed) noexcept : lineage_(seed) {
  std::uint64_t sm = seed;
  for (auto& word : state_) word = SplitMix64(sm);
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = RotL(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = RotL(state_[3], 45);
  return result;
}

Rng Rng::Derive(std::uint64_t stream_id) const noexcept {
  // Mix lineage and stream id through SplitMix64 twice to decorrelate.
  std::uint64_t sm = lineage_ ^ (stream_id * 0xD1342543DE82EF95ULL);
  const std::uint64_t child_seed = SplitMix64(sm) ^ SplitMix64(sm);
  return Rng(child_seed);
}

Rng Rng::Derive(std::string_view label) const noexcept {
  return Derive(HashLabel(label));
}

double Rng::NextDouble() noexcept {
  // 53 high bits -> [0,1) with full double precision.
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::Uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * NextDouble();
}

std::int64_t Rng::UniformInt(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<std::int64_t>((*this)());  // full range
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~0ULL - (~0ULL % span);
  std::uint64_t draw{};
  do {
    draw = (*this)();
  } while (draw >= limit);
  return lo + static_cast<std::int64_t>(draw % span);
}

double Rng::Gaussian() noexcept {
  // Box-Muller without caching the second variate, so the draw count per
  // call is fixed and streams stay aligned across code changes.
  double u1 = NextDouble();
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  const double u2 = NextDouble();
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

double Rng::Gaussian(double mean, double sigma) noexcept {
  return mean + sigma * Gaussian();
}

bool Rng::Bernoulli(double p) noexcept {
  if (p <= 0.0) {
    (*this)();  // keep draw count constant regardless of p
    return false;
  }
  if (p >= 1.0) {
    (*this)();
    return true;
  }
  return NextDouble() < p;
}

double Rng::Exponential(double mean) noexcept {
  double u = NextDouble();
  if (u <= 0.0) u = 0x1.0p-53;
  return -mean * std::log(u);
}

}  // namespace wsnlink::util
