// Empirical service-time model — paper Eqs. (5) and (6).
//
// Service time is the interval from handing a packet to the stack until the
// MAC is done with it. With the TinyOS timing constants (phy/timing.h):
//
//   T_succ  = T_MAC + T_frame + T_ACK
//   T_fail  = T_MAC + T_frame + T_waitACK
//   T_retry = D_retry + T_MAC + T_frame + T_waitACK
//
//   delivered:  T_service = T_SPI + T_succ + (N_tries - 1) * T_retry   (5)
//   lost:       T_service = T_SPI + T_fail + (N_maxTries - 1) * T_retry (6)
//
// The expected service time mixes (5) and (6) by the radio loss rate, with
// N_tries from the empirical Eq. (7) model (clamped to N_maxTries). This is
// exactly the computation behind the paper's Table II utilization examples.
#pragma once

#include "core/models/ntries_model.h"
#include "core/models/plr_model.h"

namespace wsnlink::core::models {

/// Inputs that the service time depends on.
struct ServiceTimeInputs {
  int payload_bytes = 110;
  double snr_db = 20.0;
  int max_tries = 3;
  double retry_delay_ms = 0.0;
};

/// Eqs. (5)-(6) evaluated from the stack timing constants.
class ServiceTimeModel {
 public:
  ServiceTimeModel(NtriesModel ntries = NtriesModel(),
                   PlrModel plr = PlrModel());

  /// T_frame in ms for a payload (stack overhead included).
  [[nodiscard]] static double FrameTimeMs(int payload_bytes);

  /// T_SPI in ms for a payload.
  [[nodiscard]] static double SpiTimeMs(int payload_bytes);

  /// T_MAC in ms (mean initial backoff + turnaround).
  [[nodiscard]] static double MacDelayMs() noexcept;

  /// T_succ / T_fail / T_retry in ms.
  [[nodiscard]] static double SuccessTailMs(int payload_bytes);
  [[nodiscard]] static double FailureTailMs(int payload_bytes);
  [[nodiscard]] static double RetryCostMs(int payload_bytes,
                                          double retry_delay_ms);

  /// Eq. (5): expected service time of a *delivered* packet, ms.
  [[nodiscard]] double DeliveredMs(const ServiceTimeInputs& in) const;

  /// Eq. (6): service time of a packet that exhausts all attempts, ms.
  [[nodiscard]] double LostMs(const ServiceTimeInputs& in) const;

  /// Loss-weighted mixture of Eqs. (5) and (6), ms — the average service
  /// time used for utilization and goodput.
  [[nodiscard]] double MeanMs(const ServiceTimeInputs& in) const;

  /// The same mixture for a caller that already holds the radio loss
  /// `plr_radio` of `in` (Eq. 8), so it is not derived a second time.
  [[nodiscard]] double MeanMs(const ServiceTimeInputs& in,
                              double plr_radio) const;

  [[nodiscard]] const NtriesModel& Ntries() const noexcept { return ntries_; }
  [[nodiscard]] const PlrModel& Plr() const noexcept { return plr_; }

 private:
  NtriesModel ntries_;
  PlrModel plr_;
};

}  // namespace wsnlink::core::models
