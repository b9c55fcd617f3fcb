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

void CsmaMac::EmitRadioState(trace::RadioState state) {
  if (tracer_ != nullptr) {
    tracer_->Emit({sim_.Now(), trace::EventType::kRadioState,
                   trace::Layer::kPhy, packet_id_,
                   static_cast<std::int64_t>(state), 0, 0.0, node_});
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
  done_ = std::move(done);

  if (counters_ != nullptr) counters_->Add(id_sends_);
  EmitRadioState(trace::RadioState::kListen);

  // The collapsed fast path assumes this MAC is the channel's only user;
  // with a shared medium attached, other nodes interleave channel state
  // between our steps, so every hop must be a real event.
  if (tracer_ == nullptr && !channel_.ContendedMedium()) {
    RunPacketFast();
    return;
  }
  // One-time SPI load of the frame into the radio's TX FIFO.
  sim_.Schedule(phy::SpiLoadTime(payload_bytes_), [this] { StartAttempt(); });
}

void CsmaMac::RunPacketFast() {
  // Mirrors the Send -> StartAttempt -> DoCca -> TransmitFrame ->
  // FinishAttempt event chain step for step: every RNG draw and every
  // channel query happens in the same order with the same timestamp the
  // chained events would have used. Only the MAC touches the channel and
  // the MAC is strictly sequential, so no other actor can interleave
  // channel state between the collapsed steps. The one difference is the
  // order of same-time events: Complete() is scheduled now, before any
  // packet arrival at the completion instant, where the chain schedules
  // it after (see RunPacketFast in csma_mac.h).
  const double tx_dbm = phy::OutputPowerDbm(params_.pa_level);
  sim::Time t = sim_.Now() + phy::SpiLoadTime(payload_bytes_);
  for (;;) {
    // StartAttempt: random initial backoff.
    const auto backoff = static_cast<sim::Duration>(
        rng_.UniformInt(0, phy::kInitialBackoffMax));
    listen_time_ += backoff;
    t += backoff;

    // DoCca ladder.
    int cca_retries_left = kMaxCcaRetries;
    bool ebusy = false;
    for (;;) {
      if (!channel_.CcaBusy(t)) {
        listen_time_ += phy::kTurnaroundTime;
        t += phy::kTurnaroundTime;
        break;
      }
      ++cca_busy_;
      if (counters_ != nullptr) counters_->Add(id_cca_busy_);
      if (cca_retries_left <= 0) {
        // Persistent interference: attempt consumed without transmission.
        ++tries_done_;
        ebusy = true;
        break;
      }
      --cca_retries_left;
      const auto congestion = static_cast<sim::Duration>(
          rng_.UniformInt(0, phy::kCongestionBackoffMax));
      listen_time_ += congestion;
      t += congestion;
    }

    bool finish_acked = false;
    if (!ebusy) {
      // TransmitFrame + the post-airtime outcome handling.
      ++tries_done_;
      tx_energy_uj_ += phy::EnergyPerBitMicrojoule(params_.pa_level) * 8.0 *
                       static_cast<double>(frame_bytes_);
      if (counters_ != nullptr) {
        counters_->Add(id_tx_attempts_);
        counters_->Add(id_bytes_radiated_,
                       static_cast<std::uint64_t>(frame_bytes_));
      }
      const int attempt = tries_done_;
      channel_.BeginTransmission(tx_dbm, t, t + phy::AirTime(frame_bytes_));
      t += phy::AirTime(frame_bytes_);
      const auto outcome = channel_.Transmit(tx_dbm, frame_bytes_, t);

      AttemptInfo attempt_info;
      attempt_info.packet_id = packet_id_;
      attempt_info.attempt = attempt;
      attempt_info.payload_bytes = payload_bytes_;
      attempt_info.at = t;
      attempt_info.rssi_dbm = outcome.rssi_dbm;
      attempt_info.snr_db = outcome.snr_db;
      attempt_info.data_received = outcome.received;

      if (!outcome.received) {
        if (on_attempt_) on_attempt_(attempt_info);
        listen_time_ += phy::kAckWaitTimeout;
        t += phy::kAckWaitTimeout;
      } else {
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
          info.attempt = attempt;
          on_delivery_(info);
        }
        const auto ack =
            channel_.Transmit(tx_dbm, phy::kAckFrameBytes, t);
        attempt_info.acked = ack.received;
        if (counters_ != nullptr && ack.received) {
          counters_->Add(id_acks_received_);
        }
        if (on_attempt_) on_attempt_(attempt_info);
        if (ack.received) {
          listen_time_ += phy::kAckTime;
          t += phy::kAckTime;
          finish_acked = true;
        } else {
          listen_time_ += phy::kAckWaitTimeout;
          t += phy::kAckWaitTimeout;
        }
      }
    }

    // FinishAttempt, evaluated at time t.
    if (finish_acked) {
      acked_ = true;
      break;
    }
    if (tries_done_ >= params_.max_tries) break;
    t += params_.retry_delay;
  }
  // Only the completion is a real event: the done callback serves the next
  // queued packet, so it must run at the packet's true completion time.
  sim_.Schedule(t - sim_.Now(), [this] { Complete(); });
}

void CsmaMac::StartAttempt() {
  // Unslotted CSMA-CA: random initial backoff, then clear-channel check.
  const auto backoff = static_cast<sim::Duration>(
      rng_.UniformInt(0, phy::kInitialBackoffMax));
  listen_time_ += backoff;
  sim_.Schedule(backoff, [this] { DoCca(kMaxCcaRetries); });
}

void CsmaMac::DoCca(int cca_retries_left) {
  if (!channel_.CcaBusy(sim_.Now())) {
    // Channel clear: RX->TX turnaround, then the frame goes on air.
    listen_time_ += phy::kTurnaroundTime;
    sim_.Schedule(phy::kTurnaroundTime, [this] { TransmitFrame(); });
    return;
  }
  ++cca_busy_;
  if (counters_ != nullptr) counters_->Add(id_cca_busy_);
  if (tracer_ != nullptr) {
    tracer_->Emit({sim_.Now(), trace::EventType::kCcaBusy, trace::Layer::kMac,
                   packet_id_, cca_retries_left, 0, 0.0, node_});
  }
  if (cca_retries_left <= 0) {
    // Persistent interference: the attempt is consumed without a
    // transmission, mirroring TinyOS's EBUSY send-done path.
    ++tries_done_;
    FinishAttempt(/*acked=*/false);
    return;
  }
  const auto backoff = static_cast<sim::Duration>(
      rng_.UniformInt(0, phy::kCongestionBackoffMax));
  listen_time_ += backoff;
  sim_.Schedule(backoff,
                [this, cca_retries_left] { DoCca(cca_retries_left - 1); });
}

void CsmaMac::TransmitFrame() {
  ++tries_done_;
  const sim::Duration airtime = phy::AirTime(frame_bytes_);
  tx_energy_uj_ += phy::EnergyPerBitMicrojoule(params_.pa_level) * 8.0 *
                   static_cast<double>(frame_bytes_);

  if (counters_ != nullptr) {
    counters_->Add(id_tx_attempts_);
    counters_->Add(id_bytes_radiated_, static_cast<std::uint64_t>(frame_bytes_));
  }
  if (tracer_ != nullptr) {
    tracer_->Emit({sim_.Now(), trace::EventType::kTxAttemptStart,
                   trace::Layer::kMac, packet_id_, tries_done_, frame_bytes_,
                   0.0, node_});
  }
  EmitRadioState(trace::RadioState::kTx);
  channel_.BeginTransmission(phy::OutputPowerDbm(params_.pa_level), sim_.Now(),
                             sim_.Now() + airtime);

  const int attempt = tries_done_;
  sim_.Schedule(airtime, [this, attempt] {
    const double tx_dbm = phy::OutputPowerDbm(params_.pa_level);
    const auto outcome = channel_.Transmit(tx_dbm, frame_bytes_, sim_.Now());
    EmitRadioState(trace::RadioState::kListen);

    AttemptInfo attempt_info;
    attempt_info.packet_id = packet_id_;
    attempt_info.attempt = attempt;
    attempt_info.payload_bytes = payload_bytes_;
    attempt_info.at = sim_.Now();
    attempt_info.rssi_dbm = outcome.rssi_dbm;
    attempt_info.snr_db = outcome.snr_db;
    attempt_info.data_received = outcome.received;

    if (!outcome.received) {
      if (tracer_ != nullptr) {
        tracer_->Emit({sim_.Now(), trace::EventType::kTxAttemptResult,
                       trace::Layer::kMac, packet_id_, attempt, 0,
                       outcome.snr_db, node_});
      }
      if (on_attempt_) on_attempt_(attempt_info);
      // Data frame lost: sender idles through the full ACK-wait window.
      listen_time_ += phy::kAckWaitTimeout;
      sim_.Schedule(phy::kAckWaitTimeout, [this] { FinishAttempt(false); });
      return;
    }
    // Receiver decoded this copy.
    delivered_any_ = true;
    if (counters_ != nullptr) counters_->Add(id_frames_decoded_);
    if (on_delivery_) {
      DeliveryInfo info;
      info.packet_id = packet_id_;
      info.payload_bytes = payload_bytes_;
      info.received_at = sim_.Now();
      info.rssi_dbm = outcome.rssi_dbm;
      info.snr_db = outcome.snr_db;
      info.lqi = outcome.lqi;
      info.attempt = attempt;
      on_delivery_(info);
    }
    // The receiver turns around and sends an 11-byte ACK; the ACK itself
    // traverses the (symmetric) channel and can be lost.
    const auto ack = channel_.Transmit(phy::OutputPowerDbm(params_.pa_level),
                                       phy::kAckFrameBytes, sim_.Now());
    attempt_info.acked = ack.received;
    if (tracer_ != nullptr) {
      tracer_->Emit({sim_.Now(), trace::EventType::kTxAttemptResult,
                     trace::Layer::kMac, packet_id_, attempt,
                     trace::kFlagDataReceived |
                         (ack.received ? trace::kFlagAckReceived : 0),
                     outcome.snr_db, node_});
      if (ack.received) {
        tracer_->Emit({sim_.Now(), trace::EventType::kAckReceived,
                       trace::Layer::kMac, packet_id_, attempt, 0, 0.0, node_});
      }
    }
    if (counters_ != nullptr && ack.received) counters_->Add(id_acks_received_);
    if (on_attempt_) on_attempt_(attempt_info);
    if (ack.received) {
      listen_time_ += phy::kAckTime;
      sim_.Schedule(phy::kAckTime, [this] { FinishAttempt(true); });
    } else {
      listen_time_ += phy::kAckWaitTimeout;
      sim_.Schedule(phy::kAckWaitTimeout, [this] { FinishAttempt(false); });
    }
  });
}

void CsmaMac::FinishAttempt(bool acked) {
  if (acked) {
    acked_ = true;
    Complete();
    return;
  }
  if (tries_done_ >= params_.max_tries) {
    Complete();
    return;
  }
  // Retry after the configured delay, with a fresh backoff.
  sim_.Schedule(params_.retry_delay, [this] { StartAttempt(); });
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
  EmitRadioState(trace::RadioState::kIdle);
  // Move the callback out before invoking: the callback will typically call
  // Send() again for the next queued packet.
  DoneCallback done = std::move(done_);
  done_ = nullptr;
  done(result);
}

}  // namespace wsnlink::mac
