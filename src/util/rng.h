// Deterministic random number generation for the simulator.
//
// Every stochastic component in wsnlink draws from an explicitly seeded
// generator so that an experiment is reproducible bit-for-bit from its seed.
// We implement xoshiro256++ (Blackman & Vigna) rather than using
// std::mt19937_64 because (a) the stream-splitting discipline below needs a
// cheap, well-understood jump/derive function, and (b) the standard library
// does not guarantee identical distribution output across implementations,
// which would make golden tests non-portable.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

namespace wsnlink::util {

/// xoshiro256++ PRNG with SplitMix64 seeding.
///
/// Satisfies the C++ UniformRandomBitGenerator requirements, but the
/// distribution helpers on this class (not std::* distributions) must be used
/// when cross-platform reproducibility matters.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the full 256-bit state from a 64-bit seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~0ULL; }

  /// Next 64 uniformly distributed bits.
  result_type operator()() noexcept;

  /// Derives an independent child generator for a named subsystem.
  ///
  /// The derivation hashes the parent's seed lineage with `stream_id`, so two
  /// children with different ids have unrelated streams, and the same
  /// (seed, id) pair always produces the same child. This lets e.g. the
  /// channel and the MAC consume randomness without perturbing each other
  /// when one of them changes how much it draws.
  [[nodiscard]] Rng Derive(std::uint64_t stream_id) const noexcept;

  /// Convenience overload hashing a label such as "noise-floor".
  [[nodiscard]] Rng Derive(std::string_view label) const noexcept;

  /// Uniform double in [0, 1).
  double NextDouble() noexcept;

  /// Uniform double in [lo, hi). Requires lo <= hi.
  double Uniform(double lo, double hi) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t UniformInt(std::int64_t lo, std::int64_t hi) noexcept;

  /// Standard normal via Box-Muller (deterministic: no cached spare).
  double Gaussian() noexcept;

  /// Normal with the given mean and standard deviation (sigma >= 0).
  double Gaussian(double mean, double sigma) noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  bool Bernoulli(double p) noexcept;

  /// Exponential with the given mean (> 0).
  double Exponential(double mean) noexcept;

 private:
  std::array<std::uint64_t, 4> state_{};
  // Hash of the seed/stream-id path from the root generator; used by Derive.
  std::uint64_t lineage_ = 0;
};

/// SplitMix64 step; exposed for hashing small keys into stream ids.
[[nodiscard]] std::uint64_t SplitMix64(std::uint64_t& state) noexcept;

/// FNV-1a hash of a label, for Derive(string_view).
[[nodiscard]] std::uint64_t HashLabel(std::string_view label) noexcept;

}  // namespace wsnlink::util
