// Delay model — Sec. VI of the paper.
//
// Packet delay = queuing delay + service time. The paper's central delay
// result is qualitative-but-sharp: with system utilization
//
//   rho = T_service / T_pkt                                   (Sec. VI)
//
// the queuing delay is negligible for rho well below 1, explodes as rho -> 1
// and is unbounded for rho > 1 (finite queues then saturate, so delay is
// capped near Q_max * T_service). We expose rho and an engineering estimate
// of the total delay combining an M/D/1-style wait for rho < 1 with the
// full-queue cap for rho >= 1 — enough to reproduce the 2-3
// orders-of-magnitude Fig. 15 gap and drive the Sec. VI-B guideline.
//
// The delay estimates take the mean service time from a caller that
// already holds it (ModelSet's traffic terms); Utilization also derives it
// from ServiceTimeInputs.
#pragma once

#include "core/models/service_time_model.h"

namespace wsnlink::core::models {

/// Utilization and delay estimates built on the service-time model.
class DelayModel {
 public:
  explicit DelayModel(ServiceTimeModel service = ServiceTimeModel());

  /// System utilization rho = mean service time / packet inter-arrival time.
  /// Requires pkt_interval_ms > 0.
  [[nodiscard]] double Utilization(const ServiceTimeInputs& in,
                                   double pkt_interval_ms) const;
  [[nodiscard]] static double Utilization(double service_ms,
                                          double pkt_interval_ms);

  /// Expected queue waiting time in ms:
  ///   rho < 1:  M/D/1 approximation  W = rho * T_s / (2 * (1 - rho))
  ///   rho >= 1: saturated finite queue  W ~= queue_capacity * T_s.
  [[nodiscard]] static double QueueWaitMs(double service_ms,
                                          double pkt_interval_ms,
                                          int queue_capacity);

  /// Queue wait + mean service time, ms.
  [[nodiscard]] static double TotalDelayMs(double service_ms,
                                           double pkt_interval_ms,
                                           int queue_capacity);

  /// Largest N_maxTries (in [1, limit]) keeping rho < 1 (no queue
  /// build-up, the Sec. VI-B guideline predicate), or 0 if even a single
  /// attempt saturates the link — the knob Sec. VII-B turns.
  [[nodiscard]] int MaxStableTries(int payload_bytes, double snr_db,
                                   double retry_delay_ms,
                                   double pkt_interval_ms,
                                   int limit = 8) const;

  [[nodiscard]] const ServiceTimeModel& Service() const noexcept {
    return service_;
  }

 private:
  ServiceTimeModel service_;
};

}  // namespace wsnlink::core::models
