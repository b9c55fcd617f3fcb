#include "core/models/energy_model.h"

#include <limits>

#include "phy/cc2420.h"
#include "phy/frame.h"

namespace wsnlink::core::models {

EnergyModel::EnergyModel(PerModel per) : per_(per) {}

double EnergyModel::MicrojoulesPerBit(int payload_bytes, double snr_db,
                                      int pa_level) const {
  phy::ValidatePayloadSize(payload_bytes);
  const double e_tx = phy::EnergyPerBitMicrojoule(pa_level);
  const double per = per_.Per(payload_bytes, snr_db);
  if (per >= 1.0) return std::numeric_limits<double>::infinity();
  const double overhead_ratio =
      static_cast<double>(phy::kStackOverheadBytes + payload_bytes) /
      static_cast<double>(payload_bytes);
  return e_tx * overhead_ratio / (1.0 - per);
}

double EnergyModel::BitsPerMicrojoule(int payload_bytes, double snr_db,
                                      int pa_level) const {
  const double u = MicrojoulesPerBit(payload_bytes, snr_db, pa_level);
  if (!(u < std::numeric_limits<double>::infinity())) return 0.0;
  return 1.0 / u;
}

int EnergyModel::OptimalPayload(double snr_db, int pa_level) const {
  int best = 1;
  double best_u = MicrojoulesPerBit(1, snr_db, pa_level);
  for (int l = 2; l <= phy::kMaxPayloadBytes; ++l) {
    const double u = MicrojoulesPerBit(l, snr_db, pa_level);
    if (u < best_u) {
      best_u = u;
      best = l;
    }
  }
  return best;
}

}  // namespace wsnlink::core::models
