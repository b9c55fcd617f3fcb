#include "mac/csma_mac.h"

#include <stdexcept>

#include "phy/cc2420.h"
#include "phy/frame.h"
#include "phy/timing.h"

namespace wsnlink::mac {

CsmaMac::CsmaMac(sim::Simulator& simulator, channel::Channel& channel,
                 MacParams params, util::Rng rng)
    : sim_(simulator), channel_(channel), params_(params), rng_(rng) {
  if (params_.max_tries < 1) {
    throw std::invalid_argument("CsmaMac: max_tries must be >= 1");
  }
  if (params_.retry_delay < 0) {
    throw std::invalid_argument("CsmaMac: retry_delay must be >= 0");
  }
  if (!phy::IsValidPaLevel(params_.pa_level)) {
    throw std::invalid_argument("CsmaMac: invalid PA level");
  }
}

void CsmaMac::AttachTrace(const trace::TraceContext& ctx) {
  tracer_ = ctx.tracer;
  counters_ = ctx.counters;
  node_ = ctx.node;
  if (counters_ != nullptr) {
    id_sends_ = counters_->Register("mac.sends");
    id_tx_attempts_ = counters_->Register("mac.tx_attempts");
    id_cca_busy_ = counters_->Register("mac.cca_busy");
    id_frames_decoded_ = counters_->Register("mac.frames_decoded");
    id_acks_received_ = counters_->Register("mac.acks_received");
    id_bytes_radiated_ = counters_->Register("phy.bytes_radiated");
  }
}

void CsmaMac::EmitRadioState(sim::Time at, trace::RadioState state) {
  if (tracer_ != nullptr) {
    tracer_->Emit({at, trace::EventType::kRadioState, trace::Layer::kPhy,
                   packet_id_, static_cast<std::int64_t>(state), 0, 0.0,
                   node_});
  }
}

void CsmaMac::Send(std::uint64_t packet_id, int payload_bytes,
                   DoneCallback done) {
  if (busy_) throw std::logic_error("CsmaMac::Send while busy");
  if (!done) throw std::invalid_argument("CsmaMac::Send: empty done callback");
  phy::ValidatePayloadSize(payload_bytes);

  busy_ = true;
  packet_id_ = packet_id;
  payload_bytes_ = payload_bytes;
  frame_bytes_ = phy::DataFrameBytes(payload_bytes);
  tries_done_ = 0;
  delivered_any_ = false;
  acked_ = false;
  accepted_at_ = sim_.Now();
  tx_energy_uj_ = 0.0;
  listen_time_ = 0;
  step_ = Step::kBackoff;
  done_ = std::move(done);

  if (counters_ != nullptr) counters_->Add(id_sends_);
  EmitRadioState(accepted_at_, trace::RadioState::kListen);

  // The ladder starts after the one-time SPI load of the frame into the
  // radio's TX FIFO.
  const sim::Duration spi = phy::SpiLoadTime(payload_bytes_);
  if (channel_.ContendedMedium()) {
    // Other nodes change the air between our steps, so each step runs as
    // its own event at its true time.
    sim_.Schedule(spi, [this] { OnStep(); });
    return;
  }
  // Sole user of the air: nothing else touches this channel between steps,
  // so the whole ladder runs now with explicit timestamps. Only the
  // completion is an event: it serves the next queued packet, so it must
  // run at the packet's true completion time.
  sim::Time t = accepted_at_ + spi;
  for (sim::Duration wait; (wait = Advance(t)) != kDone;) t += wait;
  sim_.ScheduleAt(t, [this] { Complete(); });
}

void CsmaMac::OnStep() {
  const sim::Duration wait = Advance(sim_.Now());
  if (wait == kDone) {
    Complete();
    return;
  }
  sim_.Schedule(wait, [this] { OnStep(); });
}

sim::Duration CsmaMac::Advance(sim::Time t) {
  switch (step_) {
    case Step::kBackoff: {
      // Unslotted CSMA-CA: random initial backoff, then clear-channel check.
      const auto backoff = static_cast<sim::Duration>(
          rng_.UniformInt(0, phy::kInitialBackoffMax));
      listen_time_ += backoff;
      cca_retries_left_ = kMaxCcaRetries;
      step_ = Step::kCca;
      return backoff;
    }
    case Step::kCca: {
      if (!channel_.CcaBusy(t)) {
        // Channel clear: RX->TX turnaround, then the frame goes on air.
        listen_time_ += phy::kTurnaroundTime;
        step_ = Step::kTransmit;
        return phy::kTurnaroundTime;
      }
      ++cca_busy_;
      if (counters_ != nullptr) counters_->Add(id_cca_busy_);
      if (tracer_ != nullptr) {
        tracer_->Emit({t, trace::EventType::kCcaBusy, trace::Layer::kMac,
                       packet_id_, cca_retries_left_, 0, 0.0, node_});
      }
      if (cca_retries_left_ > 0) {
        --cca_retries_left_;
        const auto congestion = static_cast<sim::Duration>(
            rng_.UniformInt(0, phy::kCongestionBackoffMax));
        listen_time_ += congestion;
        return congestion;
      }
      // Persistent interference: the attempt is consumed without a
      // transmission, mirroring TinyOS's EBUSY send-done path, and
      // finishes at this same instant.
      ++tries_done_;
      step_ = Step::kFinish;
      return Advance(t);
    }
    case Step::kTransmit: {
      ++tries_done_;
      tx_energy_uj_ += phy::EnergyPerBitMicrojoule(params_.pa_level) * 8.0 *
                       static_cast<double>(frame_bytes_);
      if (counters_ != nullptr) {
        counters_->Add(id_tx_attempts_);
        counters_->Add(id_bytes_radiated_,
                       static_cast<std::uint64_t>(frame_bytes_));
      }
      if (tracer_ != nullptr) {
        tracer_->Emit({t, trace::EventType::kTxAttemptStart,
                       trace::Layer::kMac, packet_id_, tries_done_,
                       frame_bytes_, 0.0, node_});
      }
      EmitRadioState(t, trace::RadioState::kTx);
      const sim::Duration airtime = phy::AirTime(frame_bytes_);
      channel_.BeginTransmission(phy::OutputPowerDbm(params_.pa_level), t,
                                 t + airtime);
      step_ = Step::kOutcome;
      return airtime;
    }
    case Step::kOutcome: {
      const double tx_dbm = phy::OutputPowerDbm(params_.pa_level);
      const auto outcome = channel_.Transmit(tx_dbm, frame_bytes_, t);
      EmitRadioState(t, trace::RadioState::kListen);

      AttemptInfo attempt_info;
      attempt_info.packet_id = packet_id_;
      attempt_info.attempt = tries_done_;
      attempt_info.payload_bytes = payload_bytes_;
      attempt_info.at = t;
      attempt_info.rssi_dbm = outcome.rssi_dbm;
      attempt_info.snr_db = outcome.snr_db;
      attempt_info.data_received = outcome.received;

      if (outcome.received) {
        delivered_any_ = true;
        if (counters_ != nullptr) counters_->Add(id_frames_decoded_);
        if (on_delivery_) {
          DeliveryInfo info;
          info.packet_id = packet_id_;
          info.payload_bytes = payload_bytes_;
          info.received_at = t;
          info.rssi_dbm = outcome.rssi_dbm;
          info.snr_db = outcome.snr_db;
          info.lqi = outcome.lqi;
          info.attempt = tries_done_;
          on_delivery_(info);
        }
        // The receiver turns around and sends an 11-byte ACK; the ACK
        // itself traverses the (symmetric) channel and can be lost.
        acked_ = channel_.Transmit(tx_dbm, phy::kAckFrameBytes, t).received;
        if (counters_ != nullptr && acked_) counters_->Add(id_acks_received_);
      }
      attempt_info.acked = acked_;
      if (tracer_ != nullptr) {
        tracer_->Emit({t, trace::EventType::kTxAttemptResult,
                       trace::Layer::kMac, packet_id_, tries_done_,
                       (outcome.received ? trace::kFlagDataReceived : 0) |
                           (acked_ ? trace::kFlagAckReceived : 0),
                       outcome.snr_db, node_});
        if (acked_) {
          tracer_->Emit({t, trace::EventType::kAckReceived, trace::Layer::kMac,
                         packet_id_, tries_done_, 0, 0.0, node_});
        }
      }
      if (on_attempt_) on_attempt_(attempt_info);
      // Without an ACK the sender idles through the full ACK-wait window.
      const sim::Duration tail = acked_ ? phy::kAckTime : phy::kAckWaitTimeout;
      listen_time_ += tail;
      step_ = Step::kFinish;
      return tail;
    }
    case Step::kFinish:
      if (acked_ || tries_done_ >= params_.max_tries) return kDone;
      // Retry after the configured delay, with a fresh backoff.
      step_ = Step::kBackoff;
      return params_.retry_delay;
  }
  return kDone;
}

void CsmaMac::Complete() {
  SendResult result;
  result.packet_id = packet_id_;
  result.acked = acked_;
  result.delivered = delivered_any_;
  result.tries = tries_done_;
  result.accepted_at = accepted_at_;
  result.completed_at = sim_.Now();
  result.tx_energy_uj = tx_energy_uj_;
  result.radiated_bytes = frame_bytes_ * tries_done_;
  result.listen_time = listen_time_;

  busy_ = false;
  EmitRadioState(result.completed_at, trace::RadioState::kIdle);
  // Move the callback out before invoking: the callback will typically call
  // Send() again for the next queued packet.
  DoneCallback done = std::move(done_);
  done_ = nullptr;
  done(result);
}

}  // namespace wsnlink::mac
