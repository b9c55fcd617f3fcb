#include "core/models/goodput_model.h"

#include "phy/frame.h"
#include "util/units.h"

namespace wsnlink::core::models {

GoodputModel::GoodputModel(ServiceTimeModel service, PlrModel plr)
    : service_(service), plr_(plr) {}

double GoodputModel::MaxGoodputKbps(const ServiceTimeInputs& in) const {
  const double service_ms = service_.MeanMs(in);
  return MaxGoodputKbps(
      in.payload_bytes, service_ms,
      plr_.RadioLoss(in.payload_bytes, in.snr_db, in.max_tries));
}

double GoodputModel::MaxGoodputKbps(int payload_bytes, double service_ms,
                                    double plr_radio) {
  const double bits = util::kBitsPerByte * static_cast<double>(payload_bytes);
  // bits / ms == kbit/s.
  return bits / service_ms * (1.0 - plr_radio);
}

int GoodputModel::OptimalPayload(double snr_db, int max_tries,
                                 double retry_delay_ms) const {
  int best = 1;
  double best_goodput = -1.0;
  for (int l = 1; l <= phy::kMaxPayloadBytes; ++l) {
    ServiceTimeInputs in;
    in.payload_bytes = l;
    in.snr_db = snr_db;
    in.max_tries = max_tries;
    in.retry_delay_ms = retry_delay_ms;
    const double g = MaxGoodputKbps(in);
    if (g > best_goodput) {
      best_goodput = g;
      best = l;
    }
  }
  return best;
}

}  // namespace wsnlink::core::models
