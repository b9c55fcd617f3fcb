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
/// clock); it advances the process state by the elapsed interval. Every
/// sample after the first draws one Gaussian's two uniforms, whatever the
/// interval, so the stream's position depends only on the sample count.
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
  /// The AR(1) coefficients of the last nonzero interval: consecutive
  /// samples often share one (an LPL train's copies), and the memo returns
  /// the identical doubles. 0 means none yet.
  sim::Duration memo_dt_ = 0;
  double memo_rho_ = 0.0;
  double memo_innovation_sigma_ = 0.0;
};

}  // namespace wsnlink::channel
