#include "core/models/delay_model.h"

#include <stdexcept>

namespace wsnlink::core::models {

DelayModel::DelayModel(ServiceTimeModel service) : service_(service) {}

double DelayModel::Utilization(const ServiceTimeInputs& in,
                               double pkt_interval_ms) const {
  return Utilization(service_.MeanMs(in), pkt_interval_ms);
}

double DelayModel::Utilization(double service_ms, double pkt_interval_ms) {
  if (pkt_interval_ms <= 0.0) {
    throw std::invalid_argument("DelayModel: packet interval must be > 0");
  }
  return service_ms / pkt_interval_ms;
}

double DelayModel::QueueWaitMs(double service_ms, double pkt_interval_ms,
                               int queue_capacity) {
  if (queue_capacity < 1) {
    throw std::invalid_argument("DelayModel: queue capacity must be >= 1");
  }
  const double rho = service_ms / pkt_interval_ms;
  if (rho < 1.0) {
    // M/D/1 mean wait; the deterministic-ish service of the stack makes
    // this a better estimate than M/M/1.
    const double wait = rho * service_ms / (2.0 * (1.0 - rho));
    // A finite queue can never hold more than its capacity worth of wait.
    const double cap = static_cast<double>(queue_capacity) * service_ms;
    return wait < cap ? wait : cap;
  }
  return static_cast<double>(queue_capacity) * service_ms;
}

double DelayModel::TotalDelayMs(double service_ms, double pkt_interval_ms,
                                int queue_capacity) {
  return QueueWaitMs(service_ms, pkt_interval_ms, queue_capacity) + service_ms;
}

int DelayModel::MaxStableTries(int payload_bytes, double snr_db,
                               double retry_delay_ms, double pkt_interval_ms,
                               int limit) const {
  if (limit < 1) throw std::invalid_argument("MaxStableTries: limit must be >= 1");
  int best = 0;
  for (int n = 1; n <= limit; ++n) {
    ServiceTimeInputs in;
    in.payload_bytes = payload_bytes;
    in.snr_db = snr_db;
    in.max_tries = n;
    in.retry_delay_ms = retry_delay_ms;
    if (Utilization(in, pkt_interval_ms) < 1.0) best = n;
  }
  return best;
}

}  // namespace wsnlink::core::models
