// Temporal shadowing (slow fading) process.
//
// The paper observes (Fig. 4) that RSSI is not stable over time in the
// hallway, with no consistent correlation to output power, and that the 35 m
// position shows markedly larger deviation (people moving near a kitchen and
// meeting room). We model the temporal component as a first-order
// Gauss-Markov (AR(1) / discretised Ornstein-Uhlenbeck) process: stationary
// N(0, sigma(d)) with exponential autocorrelation over a coherence time.
// This temporal SNR variation is also what smooths the PER-vs-SNR transition
// (Sec. III-B) relative to the sharp analytic DSSS cliff.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sim/time.h"
#include "util/rng.h"

namespace wsnlink::channel {

/// Parameters of the temporal shadowing process.
struct ShadowingParams {
  /// Stationary standard deviation in dB.
  double sigma_db = 1.2;
  /// Autocorrelation time constant: correlation between samples dt apart is
  /// exp(-dt / coherence).
  sim::Duration coherence = 2 * sim::kSecond;
};

/// Distance-dependent default deviation reproducing the paper's Fig. 4:
/// moderate everywhere, largest at 35 m (human shadowing near that spot).
[[nodiscard]] double DefaultTemporalSigmaDb(double distance_m) noexcept;

/// Lazily-evaluated AR(1) shadowing process.
///
/// Sample(t) may only be called with non-decreasing t (the simulator's
/// clock); it advances the process state by the elapsed interval.
class ShadowingProcess {
 public:
  ShadowingProcess(ShadowingParams params, util::Rng rng);

  /// Shadowing offset in dB at simulated time `now`.
  double Sample(sim::Time now);

  [[nodiscard]] const ShadowingParams& Params() const noexcept { return params_; }

 private:
  ShadowingParams params_;
  util::Rng rng_;
  sim::Time last_time_ = 0;
  double value_ = 0.0;
  bool initialised_ = false;
};

/// Structure-of-arrays bank of K independent AR(1) shadowing processes
/// advanced in lockstep on a shared clock.
///
/// Lane i's sample sequence is bit-identical to a ShadowingProcess built
/// from (params[i], rngs[i]) and called with the same time sequence: the
/// update is the same plain elementwise arithmetic over contiguous state
/// arrays (auto-vectorizable, no intrinsics), and the RNG lanes advance by
/// exactly the scalar draw count (two uniforms per Gaussian).
class ShadowingLanes {
 public:
  /// Requires params.size() == rngs.size(); validates every lane's params
  /// with the same checks (and messages) as the scalar constructor.
  ShadowingLanes(std::span<const ShadowingParams> params,
                 std::span<const util::Rng> rngs);

  [[nodiscard]] std::size_t Lanes() const noexcept { return params_.size(); }

  /// One Sample(now) per lane into `out` (size must equal Lanes()). All
  /// lanes share the clock: `now` may not decrease between calls.
  void SampleAll(sim::Time now, std::span<double> out);

 private:
  std::vector<ShadowingParams> params_;
  util::RngLanes rngs_;
  std::vector<double> value_;
  std::vector<double> rho_;    // per-call scratch
  std::vector<double> gauss_;  // per-call scratch
  sim::Time last_time_ = 0;
  bool initialised_ = false;
};

}  // namespace wsnlink::channel
