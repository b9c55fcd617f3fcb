// Empirical packet-error-rate model — paper Eq. (3).
//
//   PER(l_D, SNR) = a * l_D * exp(b * SNR),  a = 0.0128, b = -0.15
//
// PER is the probability that one transmission attempt of a frame with
// payload l_D is not acknowledged, as a function of link SNR in dB. The
// model captures the two joint effects of Sec. III-B: linear growth with
// payload size and exponential decay with SNR.
#pragma once

#include "core/models/constants.h"

namespace wsnlink::core::models {

/// Eq. (3) with pluggable coefficients (defaults to the paper's fit).
class PerModel {
 public:
  explicit PerModel(ScaledExpCoefficients coeff = kPaperPerFit);

  /// PER for one attempt, clamped to [0, 1]. payload_bytes in [1, 114].
  [[nodiscard]] double Per(int payload_bytes, double snr_db) const;

  /// SNR at which PER drops to `target` for the given payload (inverse of
  /// Eq. 3). Requires 0 < target < 1.
  [[nodiscard]] double SnrForPer(int payload_bytes, double target) const;

  /// Joint-effect zone classification of Fig. 6(d).
  enum class Zone { kHighImpact, kMediumImpact, kLowImpact };
  [[nodiscard]] static Zone ClassifyZone(double snr_db) noexcept;

  [[nodiscard]] const ScaledExpCoefficients& Coefficients() const noexcept {
    return coeff_;
  }

 private:
  ScaledExpCoefficients coeff_;
};

}  // namespace wsnlink::core::models
