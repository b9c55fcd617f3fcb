// Empirical maximum-goodput model — paper Eq. (4).
//
//   maxGoodput = l_D / T_service * (1 - PLR_radio)
//
// Maximum goodput is the application-level throughput achievable when the
// sender keeps the stack saturated (a packet is handed down the moment the
// previous one completes), so latency equals the average service time. The
// model composes the service-time model (Eqs. 5-6) with the radio loss model
// (Eq. 8).
#pragma once

#include "core/models/plr_model.h"
#include "core/models/service_time_model.h"

namespace wsnlink::core::models {

/// Eq. (4) built on the service-time and radio-loss models.
class GoodputModel {
 public:
  explicit GoodputModel(ServiceTimeModel service = ServiceTimeModel(),
                        PlrModel plr = PlrModel());

  /// Maximum goodput in kilobits per second.
  [[nodiscard]] double MaxGoodputKbps(const ServiceTimeInputs& in) const;

  /// Eq. (4) for a caller that already holds the mean service time and the
  /// radio loss of the payload's link.
  [[nodiscard]] static double MaxGoodputKbps(int payload_bytes,
                                             double service_ms,
                                             double plr_radio);

  /// Payload size in [1, 114] maximising goodput for the given link and MAC
  /// setting — the optimum tracked by Fig. 13 and the Sec. V-C guideline.
  [[nodiscard]] int OptimalPayload(double snr_db, int max_tries,
                                   double retry_delay_ms = 0.0) const;

  [[nodiscard]] const ServiceTimeModel& Service() const noexcept {
    return service_;
  }

 private:
  ServiceTimeModel service_;
  PlrModel plr_;
};

}  // namespace wsnlink::core::models
