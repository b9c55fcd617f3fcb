// wsnlint:hot-path — part of the per-config inner loop; the zero-alloc
// invariant (docs/PERF.md) is linted here and measured by perf_sweep.
#include "channel/path_loss.h"

#include <cmath>
#include <stdexcept>

namespace wsnlink::channel {

PathLoss::PathLoss(PathLossParams params) : params_(params) {
  if (params_.exponent <= 0.0) {
    throw std::invalid_argument("PathLoss: exponent must be > 0");
  }
  if (params_.sigma_db < 0.0) {
    throw std::invalid_argument("PathLoss: sigma must be >= 0");
  }
  if (params_.reference_distance_m <= 0.0) {
    throw std::invalid_argument("PathLoss: reference distance must be > 0");
  }
}

double PathLoss::MeanLossDb(double distance_m) const {
  if (distance_m <= 0.0) {
    throw std::invalid_argument("PathLoss: distance must be > 0");
  }
  return params_.reference_loss_db +
         10.0 * params_.exponent *
             std::log10(distance_m / params_.reference_distance_m);
}

double PathLoss::MeanRssiDbm(double tx_power_dbm, double distance_m) const {
  return tx_power_dbm - MeanLossDb(distance_m);
}

double PathLoss::SampleSpatialShadow(util::Rng& rng) const {
  return rng.Gaussian(0.0, params_.sigma_db);
}

}  // namespace wsnlink::channel
