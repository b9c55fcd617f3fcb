#include "mac/mac.h"

#include <stdexcept>

#include "phy/cc2420.h"
#include "phy/frame.h"
#include "phy/timing.h"

namespace wsnlink::mac {

void Mac::AttachTrace(const trace::TraceContext& ctx) {
  tracer_ = ctx.tracer;
  counters_ = ctx.counters;
  node_ = ctx.node;
  if (counters_ != nullptr) {
    id_sends_ = counters_->Register("mac.sends");
    id_cca_busy_ = counters_->Register("mac.cca_busy");
    id_frames_decoded_ = counters_->Register("mac.frames_decoded");
    id_acks_received_ = counters_->Register("mac.acks_received");
    id_bytes_radiated_ = counters_->Register("phy.bytes_radiated");
  }
}

void Mac::Send(std::uint64_t packet_id, int payload_bytes, DoneCallback done) {
  if (busy_) throw std::logic_error("Mac::Send while busy");
  if (!done) throw std::invalid_argument("Mac::Send: empty done callback");
  phy::ValidatePayloadSize(payload_bytes);

  busy_ = true;
  result_ = SendResult{};
  result_.packet_id = packet_id;
  result_.accepted_at = sim_.Now();
  payload_bytes_ = payload_bytes;
  frame_bytes_ = phy::DataFrameBytes(payload_bytes);
  done_ = std::move(done);

  if (counters_ != nullptr) counters_->Add(id_sends_);
  OnRadioState(result_.accepted_at, trace::RadioState::kListen);

  const sim::Duration spi = phy::SpiLoadTime(payload_bytes);
  if (channel_.ContendedMedium()) {
    sim_.Schedule(spi, [this] { OnStep(); });
    return;
  }
  sim::Time t = result_.accepted_at + spi;
  for (sim::Duration wait = Advance(t); wait != kDone; wait = Advance(t)) {
    t += wait;
  }
  sim_.ScheduleAt(t, [this] { Complete(); });
}

void Mac::OnStep() {
  sim::Time t = sim_.Now();
  sim::Duration wait = Advance(t);
  // A CCA before the medium's busy-until is busy whatever other nodes do
  // first, so it runs now. The last two CCAs of a backoff budget always
  // run as events: the final one may give up and complete the packet, so
  // its event is scheduled from the CCA event before it, at that CCA's own
  // time, and a same-node arrival at the completion's microsecond keeps
  // its lane order (NetworkSimulation.TieProneNetworksKeepParentBytes).
  while (wait != kDone && NextCcaRetriesLeft() >= 2 &&
         t + wait < channel_.MediumBusyUntil()) {
    t += wait;
    wait = Advance(t);
  }
  if (wait == kDone) {
    Complete();
    return;
  }
  sim_.ScheduleAt(t + wait, [this] { OnStep(); });
}

void Mac::Complete() {
  result_.completed_at = sim_.Now();
  busy_ = false;
  OnRadioState(result_.completed_at, trace::RadioState::kIdle);
  // Move the callback out before invoking: the callback will typically call
  // Send() again for the next queued packet, which resets result_.
  DoneCallback done = std::move(done_);
  done_ = nullptr;
  const SendResult result = result_;
  done(result);
}

void Mac::CountCcaBusy(sim::Time t, int retries_left) {
  ++cca_busy_;
  if (counters_ != nullptr) counters_->Add(id_cca_busy_);
  Trace(t, trace::EventType::kCcaBusy, retries_left);
}

sim::Duration Mac::Radiate(sim::Time t, int pa_level) {
  result_.tx_energy_uj += phy::EnergyPerBitMicrojoule(pa_level) * 8.0 *
                          static_cast<double>(frame_bytes_);
  result_.radiated_bytes += frame_bytes_;
  if (counters_ != nullptr) {
    counters_->Add(id_bytes_radiated_,
                   static_cast<std::uint64_t>(frame_bytes_));
  }
  const sim::Duration airtime = phy::AirTime(frame_bytes_);
  channel_.BeginTransmission(phy::OutputPowerDbm(pa_level), t, t + airtime);
  return airtime;
}

void Mac::Deliver(sim::Time t, const channel::TransmissionOutcome& outcome) {
  result_.delivered = true;
  if (counters_ != nullptr) counters_->Add(id_frames_decoded_);
  if (on_delivery_) {
    DeliveryInfo info;
    info.packet_id = result_.packet_id;
    info.payload_bytes = payload_bytes_;
    info.received_at = t;
    info.rssi_dbm = outcome.rssi_dbm;
    info.snr_db = outcome.snr_db;
    info.lqi = outcome.lqi;
    info.attempt = result_.tries;
    on_delivery_(info);
  }
}

bool Mac::AckReceived(double tx_dbm, sim::Time t) {
  const bool acked = channel_.Received(tx_dbm, phy::kAckFrameBytes, t);
  if (acked && counters_ != nullptr) counters_->Add(id_acks_received_);
  return acked;
}

void Mac::ReportAttempt(sim::Time t,
                        const channel::TransmissionOutcome& outcome,
                        bool data_received, bool acked) const {
  if (on_attempt_) {
    AttemptRecord record;
    record.packet_id = result_.packet_id;
    record.attempt = result_.tries;
    record.payload_bytes = payload_bytes_;
    record.at = t;
    record.rssi_dbm = outcome.rssi_dbm;
    record.snr_db = outcome.snr_db;
    record.data_received = data_received;
    record.acked = acked;
    on_attempt_(record);
  }
}

}  // namespace wsnlink::mac
