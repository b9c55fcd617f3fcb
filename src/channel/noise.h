// Noise-floor process.
//
// The paper analysed ~24 million noise-floor samples (Fig. 5) and found the
// distribution is not well represented by a constant: assuming a constant
// -95 dBm floor distorts the SNR distribution. We model the floor as a base
// Gaussian component around a quiet level plus intermittent interference
// bursts (2.4 GHz ISM neighbours: WiFi beacons, microwave ovens) that raise
// the floor by several dB for tens of milliseconds. The mixture's mean is
// calibrated to -95 dBm and its right skew reproduces the real-vs-constant
// SNR discrepancy of Fig. 5.
#pragma once

#include "sim/time.h"
#include "util/rng.h"

namespace wsnlink::channel {

/// Parameters of the noise-floor mixture process.
struct NoiseParams {
  /// Quiet-floor mean in dBm. Chosen so the overall mixture mean is ~-95.
  double quiet_mean_dbm = -95.6;
  /// Quiet-floor standard deviation in dB.
  double quiet_sigma_db = 0.9;
  /// Mean rate of interference bursts (bursts per second).
  double burst_rate_hz = 0.8;
  /// Mean burst duration.
  sim::Duration burst_mean_duration = 40 * sim::kMillisecond;
  /// Mean burst elevation above the quiet floor, in dB (exponentially
  /// distributed per burst: many small bumps, occasional big ones).
  double burst_mean_elevation_db = 7.0;
};

/// Time-varying noise floor with Poisson interference bursts.
///
/// SampleDbm(t) must be called with non-decreasing t.
class NoiseFloorProcess {
 public:
  NoiseFloorProcess(NoiseParams params, util::Rng rng);

  /// Instantaneous noise floor in dBm at simulated time `now`.
  double SampleDbm(sim::Time now);

  /// True if an interference burst is active at `now` (used by the MAC's
  /// clear-channel assessment). Advances the burst schedule like SampleDbm.
  bool InterferenceActive(sim::Time now);

  /// Advances the process exactly as SampleDbm(now) does (burst schedule
  /// and the quiet floor's two uniforms) without computing the sample.
  void SkipSample(sim::Time now);

  [[nodiscard]] const NoiseParams& Params() const noexcept { return params_; }

 private:
  /// Advances the burst schedule so it covers `now`.
  void AdvanceBursts(sim::Time now);

  NoiseParams params_;
  util::Rng rng_;
  // Current / next burst window.
  sim::Time burst_start_ = 0;
  sim::Time burst_end_ = -1;  // end < start means "no burst scheduled yet"
  double burst_elevation_db_ = 0.0;
  bool schedule_started_ = false;
};

}  // namespace wsnlink::channel
