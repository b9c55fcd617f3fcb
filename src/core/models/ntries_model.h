// Empirical transmission-count model — paper Eq. (7).
//
//   N_tries(l_D, SNR) = 1 + a * l_D * exp(b * SNR),  a = 0.02, b = -0.18
//
// The average number of transmissions needed to deliver a packet. The
// second term is the expected number of *extra* transmissions; equating it
// with the geometric-retry expectation p/(1-p) recovers the implied
// per-attempt failure probability p, which the truncated variants use when
// a finite N_maxTries caps the retry loop.
#pragma once

#include "core/models/constants.h"

namespace wsnlink::core::models {

/// Eq. (7) with pluggable coefficients (defaults to the paper's fit).
class NtriesModel {
 public:
  explicit NtriesModel(ScaledExpCoefficients coeff = kPaperNtriesFit);

  /// Paper Eq. (7): mean transmissions with unbounded retries.
  [[nodiscard]] double MeanTries(int payload_bytes, double snr_db) const;

  /// Mean transmissions when the MAC stops after `max_tries` attempts:
  /// E[min(G, N)] for the implied geometric attempt process.
  [[nodiscard]] double MeanTriesTruncated(int payload_bytes, double snr_db,
                                          int max_tries) const;

  [[nodiscard]] const ScaledExpCoefficients& Coefficients() const noexcept {
    return coeff_;
  }

 private:
  ScaledExpCoefficients coeff_;
};

}  // namespace wsnlink::core::models
