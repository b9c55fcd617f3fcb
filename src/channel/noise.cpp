// wsnlint:hot-path — part of the per-config inner loop; the zero-alloc
// invariant (docs/PERF.md) is linted here and measured by perf_sweep.
#include "channel/noise.h"

#include <stdexcept>

#include "util/units.h"

namespace wsnlink::channel {

NoiseFloorProcess::NoiseFloorProcess(NoiseParams params, util::Rng rng)
    : params_(params), rng_(rng) {
  if (params_.quiet_sigma_db < 0.0) {
    throw std::invalid_argument("NoiseFloorProcess: sigma must be >= 0");
  }
  if (params_.burst_rate_hz < 0.0) {
    throw std::invalid_argument("NoiseFloorProcess: burst rate must be >= 0");
  }
  if (params_.burst_mean_duration <= 0) {
    throw std::invalid_argument("NoiseFloorProcess: burst duration must be > 0");
  }
}

void NoiseFloorProcess::AdvanceBursts(sim::Time now) {
  if (params_.burst_rate_hz <= 0.0) {
    // No interference configured; park the schedule far in the future.
    burst_start_ = now + 1;
    burst_end_ = burst_start_ - 1;
    return;
  }
  if (!schedule_started_) {
    const double gap_s = rng_.Exponential(1.0 / params_.burst_rate_hz);
    burst_start_ = sim::FromSeconds(gap_s);
    burst_end_ = burst_start_ +
                 sim::FromSeconds(rng_.Exponential(
                     sim::ToSeconds(params_.burst_mean_duration)));
    burst_elevation_db_ = rng_.Exponential(params_.burst_mean_elevation_db);
    schedule_started_ = true;
  }
  // Roll the schedule forward until the current burst window ends at or
  // after `now`.
  while (burst_end_ < now) {
    const double gap_s = rng_.Exponential(1.0 / params_.burst_rate_hz);
    burst_start_ = burst_end_ + sim::FromSeconds(gap_s);
    burst_end_ = burst_start_ +
                 sim::FromSeconds(rng_.Exponential(
                     sim::ToSeconds(params_.burst_mean_duration)));
    burst_elevation_db_ = rng_.Exponential(params_.burst_mean_elevation_db);
  }
}

bool NoiseFloorProcess::InterferenceActive(sim::Time now) {
  AdvanceBursts(now);
  return now >= burst_start_ && now <= burst_end_;
}

double NoiseFloorProcess::SampleDbm(sim::Time now) {
  const bool bursting = InterferenceActive(now);
  const double quiet = rng_.Gaussian(params_.quiet_mean_dbm, params_.quiet_sigma_db);
  if (!bursting) return quiet;
  // Burst power adds to the quiet floor in the linear domain.
  return util::AddPowersDbm(quiet, params_.quiet_mean_dbm + burst_elevation_db_);
}

}  // namespace wsnlink::channel
