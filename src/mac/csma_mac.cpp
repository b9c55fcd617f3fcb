#include "mac/csma_mac.h"

#include <stdexcept>

#include "phy/cc2420.h"
#include "phy/timing.h"

namespace wsnlink::mac {

CsmaMac::CsmaMac(sim::Simulator& simulator, channel::Channel& channel,
                 MacParams params, util::Rng rng)
    : Mac(simulator, channel), params_(params), rng_(rng) {
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
  Mac::AttachTrace(ctx);
  if (counters_ != nullptr) {
    id_tx_attempts_ = counters_->Register("mac.tx_attempts");
  }
}

void CsmaMac::OnRadioState(sim::Time at, trace::RadioState state) {
  if (tracer_ != nullptr) {
    tracer_->Emit({at, trace::EventType::kRadioState, trace::Layer::kPhy,
                   result_.packet_id, static_cast<std::int64_t>(state), 0, 0.0,
                   node_});
  }
}

sim::Duration CsmaMac::Advance(sim::Time t) {
  switch (step_) {
    case Step::kBackoff: {
      // Unslotted CSMA-CA: random initial backoff, then clear-channel check.
      const auto backoff = static_cast<sim::Duration>(
          rng_.UniformInt(0, phy::kInitialBackoffMax));
      result_.listen_time += backoff;
      cca_retries_left_ = kMaxCcaRetries;
      step_ = Step::kCca;
      return backoff;
    }
    case Step::kCca: {
      if (!channel_.CcaBusy(t)) {
        // Channel clear: RX->TX turnaround, then the frame goes on air.
        result_.listen_time += phy::kTurnaroundTime;
        step_ = Step::kTransmit;
        return phy::kTurnaroundTime;
      }
      CountCcaBusy(t, cca_retries_left_);
      if (cca_retries_left_ > 0) {
        --cca_retries_left_;
        const auto congestion = static_cast<sim::Duration>(
            rng_.UniformInt(0, phy::kCongestionBackoffMax));
        result_.listen_time += congestion;
        return congestion;
      }
      // Persistent interference: the attempt is consumed without a
      // transmission, mirroring TinyOS's EBUSY send-done path, and
      // finishes at this same instant.
      ++result_.tries;
      step_ = Step::kFinish;
      return Advance(t);
    }
    case Step::kTransmit: {
      ++result_.tries;
      if (counters_ != nullptr) counters_->Add(id_tx_attempts_);
      Trace(t, trace::EventType::kTxAttemptStart, result_.tries, frame_bytes_);
      OnRadioState(t, trace::RadioState::kTx);
      step_ = Step::kOutcome;
      return Radiate(t, params_.pa_level);
    }
    case Step::kOutcome: {
      const double tx_dbm = phy::OutputPowerDbm(params_.pa_level);
      const auto outcome = channel_.Transmit(tx_dbm, frame_bytes_, t);
      OnRadioState(t, trace::RadioState::kListen);
      if (outcome.received) {
        Deliver(t, outcome);
        // The receiver turns around and sends an 11-byte ACK.
        result_.acked = AckReceived(tx_dbm, t);
      }
      Trace(t, trace::EventType::kTxAttemptResult, result_.tries,
            (outcome.received ? trace::kFlagDataReceived : 0) |
                (result_.acked ? trace::kFlagAckReceived : 0),
            outcome.snr_db);
      if (result_.acked) {
        Trace(t, trace::EventType::kAckReceived, result_.tries);
      }
      ReportAttempt(t, outcome, outcome.received, result_.acked);
      // Without an ACK the sender idles through the full ACK-wait window.
      const sim::Duration tail =
          result_.acked ? phy::kAckTime : phy::kAckWaitTimeout;
      result_.listen_time += tail;
      step_ = Step::kFinish;
      return tail;
    }
    case Step::kFinish:
      // Done, or retry after the configured delay with a fresh backoff.
      step_ = Step::kBackoff;
      return result_.acked || result_.tries >= params_.max_tries
                 ? kDone
                 : params_.retry_delay;
  }
  return kDone;
}

}  // namespace wsnlink::mac
