// Empirical energy model — paper Eq. (2).
//
//   U_eng(l_D, SNR, P_tx) = E_tx(P_tx) * (l_0 + l_D) / (l_D * (1 - PER))
//
// U_eng is the transmit energy spent per *delivered information bit*
// (microjoules per bit). E_tx is the CC2420 per-bit transmit energy at the
// chosen PA level, l_0 the stack overhead, and the 1/(1-PER) factor is the
// expected number of transmissions per delivered packet. Note the factor is
// exact for any finite N_maxTries as well: expected attempts per delivered
// packet is E[tries] / P(delivered) = 1/(1-PER) for the geometric process.
//
// Energy efficiency is the reciprocal: bits delivered per microjoule.
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

  /// Energy efficiency: delivered bits per microjoule (0 when U_eng = inf).
  [[nodiscard]] double BitsPerMicrojoule(int payload_bytes, double snr_db,
                                         int pa_level) const;

  /// Payload size in [1, 114] minimising U_eng at the given SNR and power
  /// (exhaustive scan; the optimum the paper's Fig. 9 tracks).
  [[nodiscard]] int OptimalPayload(double snr_db, int pa_level) const;

  /// The PA level from the sweep set minimising U_eng for a given distance-
  /// dependent SNR mapping: caller supplies snr(pa_level).
  template <typename SnrFn>
  [[nodiscard]] int OptimalPaLevel(int payload_bytes, SnrFn&& snr_of_level) const;

  [[nodiscard]] const PerModel& Per() const noexcept { return per_; }

 private:
  PerModel per_;
};

template <typename SnrFn>
int EnergyModel::OptimalPaLevel(int payload_bytes, SnrFn&& snr_of_level) const {
  int best_level = 31;
  double best = MicrojoulesPerBit(payload_bytes, snr_of_level(31), 31);
  for (const int level : {3, 7, 11, 15, 19, 23, 27}) {
    const double u =
        MicrojoulesPerBit(payload_bytes, snr_of_level(level), level);
    if (u < best) {
      best = u;
      best_level = level;
    }
  }
  return best_level;
}

}  // namespace wsnlink::core::models
