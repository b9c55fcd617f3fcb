#include "core/models/per_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "phy/frame.h"

namespace wsnlink::core::models {

PerModel::PerModel(ScaledExpCoefficients coeff) : coeff_(coeff) {
  if (coeff_.a <= 0.0) throw std::invalid_argument("PerModel: a must be > 0");
  if (coeff_.b >= 0.0) throw std::invalid_argument("PerModel: b must be < 0");
}

double PerModel::Per(int payload_bytes, double snr_db) const {
  phy::ValidatePayloadSize(payload_bytes);
  const double raw = coeff_.a * static_cast<double>(payload_bytes) *
                     std::exp(coeff_.b * snr_db);
  return std::clamp(raw, 0.0, 1.0);
}

double PerModel::SnrForPer(int payload_bytes, double target) const {
  phy::ValidatePayloadSize(payload_bytes);
  if (target <= 0.0 || target >= 1.0) {
    throw std::invalid_argument("SnrForPer: target must be in (0, 1)");
  }
  // target = a * l * exp(b * snr)  =>  snr = ln(target / (a*l)) / b.
  return std::log(target / (coeff_.a * static_cast<double>(payload_bytes))) /
         coeff_.b;
}

PerModel::Zone PerModel::ClassifyZone(double snr_db) noexcept {
  if (snr_db < kGreyZoneHighDb) return Zone::kHighImpact;
  if (snr_db < kLowImpactDb) return Zone::kMediumImpact;
  return Zone::kLowImpact;
}

}  // namespace wsnlink::core::models
