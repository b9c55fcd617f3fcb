#include "core/models/plr_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "phy/frame.h"

namespace wsnlink::core::models {

PlrModel::PlrModel(ScaledExpCoefficients coeff) : coeff_(coeff) {
  if (coeff_.a <= 0.0) throw std::invalid_argument("PlrModel: a must be > 0");
  if (coeff_.b >= 0.0) throw std::invalid_argument("PlrModel: b must be < 0");
}

double PlrModel::AttemptLoss(int payload_bytes, double snr_db) const {
  phy::ValidatePayloadSize(payload_bytes);
  const double raw = coeff_.a * static_cast<double>(payload_bytes) *
                     std::exp(coeff_.b * snr_db);
  return std::clamp(raw, 0.0, 1.0);
}

double PlrModel::RadioLoss(int payload_bytes, double snr_db,
                           int max_tries) const {
  if (max_tries < 1) {
    throw std::invalid_argument("RadioLoss: max_tries must be >= 1");
  }
  return std::pow(AttemptLoss(payload_bytes, snr_db), max_tries);
}

int PlrModel::MinTriesForLoss(int payload_bytes, double snr_db, double target,
                              int limit) const {
  if (target <= 0.0 || target >= 1.0) {
    throw std::invalid_argument("MinTriesForLoss: target must be in (0, 1)");
  }
  if (limit < 1) throw std::invalid_argument("MinTriesForLoss: limit must be >= 1");
  for (int n = 1; n <= limit; ++n) {
    if (RadioLoss(payload_bytes, snr_db, n) <= target) return n;
  }
  return limit;
}

double QueueLossEstimate(double utilization) {
  if (utilization < 0.0) {
    throw std::invalid_argument("QueueLossEstimate: utilization must be >= 0");
  }
  if (utilization <= 1.0) return 0.0;
  return 1.0 - 1.0 / utilization;
}

double CombineLoss(double plr_queue, double plr_radio) {
  if (plr_queue < 0.0 || plr_queue > 1.0 || plr_radio < 0.0 || plr_radio > 1.0) {
    throw std::invalid_argument("CombineLoss: rates must be in [0, 1]");
  }
  return 1.0 - (1.0 - plr_queue) * (1.0 - plr_radio);
}

}  // namespace wsnlink::core::models
