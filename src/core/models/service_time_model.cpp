#include "core/models/service_time_model.h"

#include <algorithm>
#include <stdexcept>

#include "phy/frame.h"
#include "phy/timing.h"
#include "sim/time.h"

namespace wsnlink::core::models {

namespace {

constexpr double kAckMs = sim::ToMilliseconds(phy::kAckTime);
constexpr double kWaitAckMs = sim::ToMilliseconds(phy::kAckWaitTimeout);

void ValidateInputs(const ServiceTimeInputs& in) {
  phy::ValidatePayloadSize(in.payload_bytes);
  if (in.max_tries < 1) {
    throw std::invalid_argument("ServiceTimeModel: max_tries must be >= 1");
  }
  if (in.retry_delay_ms < 0.0) {
    throw std::invalid_argument("ServiceTimeModel: retry_delay must be >= 0");
  }
}

}  // namespace

ServiceTimeModel::ServiceTimeModel(NtriesModel ntries, PlrModel plr)
    : ntries_(ntries), plr_(plr) {}

double ServiceTimeModel::FrameTimeMs(int payload_bytes) {
  return sim::ToMilliseconds(phy::DataFrameAirTime(payload_bytes));
}

double ServiceTimeModel::SpiTimeMs(int payload_bytes) {
  return sim::ToMilliseconds(phy::SpiLoadTime(payload_bytes));
}

double ServiceTimeModel::MacDelayMs() noexcept {
  return sim::ToMilliseconds(phy::MeanMacDelay());
}

double ServiceTimeModel::SuccessTailMs(int payload_bytes) {
  return MacDelayMs() + FrameTimeMs(payload_bytes) + kAckMs;
}

double ServiceTimeModel::FailureTailMs(int payload_bytes) {
  return MacDelayMs() + FrameTimeMs(payload_bytes) + kWaitAckMs;
}

double ServiceTimeModel::RetryCostMs(int payload_bytes, double retry_delay_ms) {
  return retry_delay_ms + FailureTailMs(payload_bytes);
}

double ServiceTimeModel::DeliveredMs(const ServiceTimeInputs& in) const {
  ValidateInputs(in);
  const double n_tries =
      std::min(ntries_.MeanTries(in.payload_bytes, in.snr_db),
               static_cast<double>(in.max_tries));
  return SpiTimeMs(in.payload_bytes) + SuccessTailMs(in.payload_bytes) +
         (n_tries - 1.0) * RetryCostMs(in.payload_bytes, in.retry_delay_ms);
}

double ServiceTimeModel::LostMs(const ServiceTimeInputs& in) const {
  ValidateInputs(in);
  return SpiTimeMs(in.payload_bytes) + FailureTailMs(in.payload_bytes) +
         static_cast<double>(in.max_tries - 1) *
             RetryCostMs(in.payload_bytes, in.retry_delay_ms);
}

double ServiceTimeModel::MeanMs(const ServiceTimeInputs& in) const {
  ValidateInputs(in);
  const double plr =
      plr_.RadioLoss(in.payload_bytes, in.snr_db, in.max_tries);
  return (1.0 - plr) * DeliveredMs(in) + plr * LostMs(in);
}

}  // namespace wsnlink::core::models
