// Empirical packet-loss models — paper Eq. (8) plus the queuing-loss
// estimate of Sec. VII.
//
//   PLR_radio(l_D, SNR, N) = (a * l_D * exp(b * SNR))^N,
//   a = 0.011, b = -0.145
//
// Radio loss is the probability that all N_maxTries transmission attempts
// fail. Queuing loss (buffer overflow) is not given a closed form in the
// paper; Sec. VII's guideline reasons through the system utilization rho, so
// we provide the corresponding fluid estimate: when rho > 1, the fraction of
// arrivals the server can never drain is 1 - 1/rho.
#pragma once

#include "core/models/constants.h"

namespace wsnlink::core::models {

/// Eq. (8) with pluggable coefficients (defaults to the paper's fit).
class PlrModel {
 public:
  explicit PlrModel(ScaledExpCoefficients coeff = kPaperPlrFit);

  /// Per-attempt loss probability (the base of Eq. 8), clamped to [0, 1].
  [[nodiscard]] double AttemptLoss(int payload_bytes, double snr_db) const;

  /// Radio loss rate after up to `max_tries` attempts (Eq. 8).
  [[nodiscard]] double RadioLoss(int payload_bytes, double snr_db,
                                 int max_tries) const;

  /// Smallest N_maxTries achieving RadioLoss <= target, or `limit` if even
  /// `limit` tries cannot reach it. Requires 0 < target < 1, limit >= 1.
  [[nodiscard]] int MinTriesForLoss(int payload_bytes, double snr_db,
                                    double target, int limit = 8) const;

  [[nodiscard]] const ScaledExpCoefficients& Coefficients() const noexcept {
    return coeff_;
  }

 private:
  ScaledExpCoefficients coeff_;
};

/// Fluid-limit queue overflow estimate: 0 when rho <= 1, else 1 - 1/rho.
/// (With a finite queue the measured value also includes transient bursts;
/// this is the guideline-level estimate of Sec. VII-B.)
[[nodiscard]] double QueueLossEstimate(double utilization);

/// Combines independent radio and queue loss into a total packet loss rate.
[[nodiscard]] double CombineLoss(double plr_queue, double plr_radio);

}  // namespace wsnlink::core::models
