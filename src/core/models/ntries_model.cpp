#include "core/models/ntries_model.h"

#include <cmath>
#include <stdexcept>

#include "phy/frame.h"

namespace wsnlink::core::models {

NtriesModel::NtriesModel(ScaledExpCoefficients coeff) : coeff_(coeff) {
  if (coeff_.a <= 0.0) throw std::invalid_argument("NtriesModel: a must be > 0");
  if (coeff_.b >= 0.0) throw std::invalid_argument("NtriesModel: b must be < 0");
}

double NtriesModel::MeanTries(int payload_bytes, double snr_db) const {
  phy::ValidatePayloadSize(payload_bytes);
  return 1.0 + coeff_.a * static_cast<double>(payload_bytes) *
                   std::exp(coeff_.b * snr_db);
}

double NtriesModel::MeanTriesTruncated(int payload_bytes, double snr_db,
                                       int max_tries) const {
  if (max_tries < 1) {
    throw std::invalid_argument("MeanTriesTruncated: max_tries must be >= 1");
  }
  // Implied per-attempt failure p = x / (1 + x), x = MeanTries - 1. The
  // (1 + x) - 1 round trip is kept verbatim: simplifying it algebraically
  // would change the floating-point result.
  const double x = MeanTries(payload_bytes, snr_db) - 1.0;
  const double p = x / (1.0 + x);
  if (p <= 0.0) return 1.0;
  // On a dead link p rounds to 1, or is NaN once x overflows; every
  // attempt fails and the sum below tends to N as p -> 1.
  if (!(p < 1.0)) return static_cast<double>(max_tries);
  // E[min(G, N)] for G ~ Geometric(success = 1-p):
  // sum_{k=0}^{N-1} p^k = (1 - p^N) / (1 - p).
  const double pn = std::pow(p, max_tries);
  return (1.0 - pn) / (1.0 - p);
}

}  // namespace wsnlink::core::models
