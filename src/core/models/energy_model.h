// Empirical energy model — paper Eq. (2).
//
//   U_eng(l_D, SNR, P_tx) = E_tx(P_tx) * (l_0 + l_D) / (l_D * (1 - PER))
//
// U_eng is the transmit energy spent per *delivered information bit*
// (microjoules per bit). E_tx is the CC2420 per-bit transmit energy at the
// chosen PA level, l_0 the stack overhead, and the 1/(1-PER) factor is the
// expected number of transmissions per delivered packet. Note the factor is
// exact for any finite N_maxTries as well: expected attempts per delivered
#pragma once

#include "core/models/per_model.h"

namespace wsnlink::core::models {

/// Eq. (2) built on a PerModel (defaults to the paper's fit).
class EnergyModel {
 public:
  explicit EnergyModel(PerModel per = PerModel());

  /// Energy per delivered information bit, microjoules. Returns +infinity
  /// when the model PER saturates at 1 (nothing is ever delivered).
  [[nodiscard]] double MicrojoulesPerBit(int payload_bytes, double snr_db,
                                         int pa_level) const;

  /// Eq. (2) for a caller that already holds the attempt error rate `per`.
  [[nodiscard]] static double MicrojoulesPerBitAtPer(int payload_bytes,
                                                     double per, int pa_level);

  /// Payload size in [1, 114] minimising U_eng at the given SNR and power
  /// (exhaustive scan; the optimum the paper's Fig. 9 tracks).
  [[nodiscard]] int OptimalPayload(double snr_db, int pa_level) const;

  [[nodiscard]] const PerModel& Per() const noexcept { return per_; }

 private:
  PerModel per_;
};

}  // namespace wsnlink::core::models
