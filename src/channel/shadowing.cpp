// wsnlint:hot-path — part of the per-config inner loop; the zero-alloc
// invariant (docs/PERF.md) is linted here and measured by perf_sweep.
#include "channel/shadowing.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace wsnlink::channel {

double DefaultTemporalSigmaDb(double distance_m) noexcept {
  // Baseline indoor flicker plus a strong human-shadowing component close to
  // the 35 m position (kitchen / meeting room in the paper's hallway).
  const double base = 1.0;
  if (distance_m >= 33.0) return base + 1.8;
  if (distance_m >= 28.0) return base + 0.4;
  return base;
}

ShadowingProcess::ShadowingProcess(ShadowingParams params, util::Rng rng)
    : params_(params), rng_(rng) {
  if (params_.sigma_db < 0.0) {
    throw std::invalid_argument("ShadowingProcess: sigma must be >= 0");
  }
  if (params_.coherence <= 0) {
    throw std::invalid_argument("ShadowingProcess: coherence must be > 0");
  }
}

double ShadowingProcess::Sample(sim::Time now) {
  if (!initialised_) {
    value_ = rng_.Gaussian(0.0, params_.sigma_db);
    last_time_ = now;
    initialised_ = true;
    return value_;
  }
  if (now < last_time_) {
    throw std::logic_error("ShadowingProcess: time moved backwards");
  }
  const double dt = static_cast<double>(now - last_time_);
  const double tau = static_cast<double>(params_.coherence);
  const double rho = std::exp(-dt / tau);
  // AR(1) update preserving the stationary variance sigma^2.
  const double innovation_sigma =
      params_.sigma_db * std::sqrt(std::max(0.0, 1.0 - rho * rho));
  value_ = rho * value_ + rng_.Gaussian(0.0, innovation_sigma);
  last_time_ = now;
  return value_;
}

}  // namespace wsnlink::channel
