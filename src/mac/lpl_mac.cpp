#include "mac/lpl_mac.h"

#include <stdexcept>

#include "phy/cc2420.h"
#include "phy/frame.h"
#include "phy/timing.h"

namespace wsnlink::mac {

namespace {

/// Gap between consecutive copies in a train: the sender's short listen
/// window for the ACK (BoX-MAC-2 uses ~1.6 ms).
constexpr sim::Duration kInterCopyGap = 1'600;

}  // namespace

LplMac::LplMac(sim::Simulator& simulator, channel::Channel& channel,
               LplParams params, util::Rng rng)
    : Mac(simulator, channel), params_(params), rng_(rng) {
  if (params_.wakeup_interval <= 0) {
    throw std::invalid_argument("LplMac: wakeup interval must be > 0");
  }
  if (params_.max_tries < 1) {
    throw std::invalid_argument("LplMac: max_tries must be >= 1");
  }
  if (params_.retry_delay < 0) {
    throw std::invalid_argument("LplMac: retry_delay must be >= 0");
  }
  if (params_.probe_duration <= 0 ||
      params_.probe_duration >= params_.wakeup_interval) {
    throw std::invalid_argument(
        "LplMac: probe duration must be in (0, wakeup interval)");
  }
  if (!phy::IsValidPaLevel(params_.pa_level)) {
    throw std::invalid_argument("LplMac: invalid PA level");
  }
  // The receiver's wake phase is arbitrary relative to the sender.
  phase_ = static_cast<sim::Duration>(
      rng_.UniformInt(0, params_.wakeup_interval - 1));
}

void LplMac::AttachTrace(const trace::TraceContext& ctx) {
  Mac::AttachTrace(ctx);
  if (counters_ != nullptr) {
    id_trains_ = counters_->Register("mac.lpl_trains");
    id_copies_ = counters_->Register("mac.lpl_copies");
  }
}

double LplMac::ReceiverIdleDutyCycle() const noexcept {
  return static_cast<double>(params_.probe_duration) /
         static_cast<double>(params_.wakeup_interval);
}

double LplMac::ReceiverIdlePowerMw() const noexcept {
  return ReceiverIdleDutyCycle() * phy::kSupplyVolts * phy::kRxCurrentMa;
}

bool LplMac::ReceiverAwake(sim::Time t) const {
  if (receiver_latched_) return true;
  const sim::Duration in_cycle =
      (t - phase_) % params_.wakeup_interval >= 0
          ? (t - phase_) % params_.wakeup_interval
          : (t - phase_) % params_.wakeup_interval + params_.wakeup_interval;
  return in_cycle < params_.probe_duration;
}

sim::Duration LplMac::Advance(sim::Time t) {
  switch (step_) {
    case Step::kTrainStart: {
      if (result_.tries == 0) copies_ = 0;  // first train of a new packet
      ++result_.tries;
      receiver_latched_ = false;
      if (counters_ != nullptr) counters_->Add(id_trains_);
      Trace(t, trace::EventType::kLplTrainStart, result_.tries);
      // Short CSMA backoff, then a carrier-sense check before the train.
      cca_retries_left_ = kMaxCcaRetries;
      step_ = Step::kTrainCca;
      return static_cast<sim::Duration>(
                 rng_.UniformInt(0, phy::kCongestionBackoffMax)) +
             phy::kTurnaroundTime;
    }
    case Step::kTrainCca:
      // Only the shared medium is sensed (MediumBusy is RNG-free and always
      // false without a medium): the solo LPL sender never sampled the
      // channel before a train, and folding the noise and interferer legs
      // in here would shift their renewal streams and change every
      // single-link run.
      if (channel_.MediumBusy(t)) {
        CountCcaBusy(t, cca_retries_left_);
        // Out of backoffs the train goes anyway: it must cover the
        // receiver's wakeup window or the packet has no chance at all, and
        // the collision logic at the receiver decides what survives.
        if (cca_retries_left_ > 0) {
          --cca_retries_left_;
          return static_cast<sim::Duration>(
              rng_.UniformInt(0, phy::kCongestionBackoffMax));
        }
      }
      // The train runs for up to one wakeup interval plus a probe
      // (guaranteeing the receiver's window is covered); its first copy
      // goes out now.
      train_deadline_ = t + params_.wakeup_interval + params_.probe_duration;
      [[fallthrough]];
    case Step::kCopy:
      ++copies_;
      if (counters_ != nullptr) counters_->Add(id_copies_);
      Trace(t, trace::EventType::kLplCopySent, result_.tries, copies_);
      step_ = Step::kCopyEnd;
      return Radiate(t, params_.pa_level);
    case Step::kCopyEnd: {
      const double tx_dbm = phy::OutputPowerDbm(params_.pa_level);
      const bool train_goes_on =
          t + kInterCopyGap + phy::AirTime(frame_bytes_) <= train_deadline_;
      if (train_goes_on && !ReceiverAwake(t)) {
        // The sleeping receiver cannot hear this copy and another follows,
        // so nothing reads its outcome: only the channel's streams advance.
        channel_.TransmitUnheard(tx_dbm, frame_bytes_, t);
        step_ = Step::kCopy;
        return kInterCopyGap;
      }
      const auto outcome = channel_.Transmit(tx_dbm, frame_bytes_, t);
      if (outcome.received && ReceiverAwake(t)) {
        if (!receiver_latched_) {
          Trace(t, trace::EventType::kLplReceiverWake, result_.tries);
        }
        receiver_latched_ = true;
        Deliver(t, outcome);
        // The receiver acknowledges; the ACK traverses the channel too.
        if (AckReceived(tx_dbm, t)) {
          result_.acked = true;
          Trace(t, trace::EventType::kAckReceived, result_.tries);
          ReportAttempt(t, outcome, true, true);
          step_ = Step::kFinish;
          return phy::kAckTime;
        }
        // ACK lost: keep the train going; the awake receiver will re-ack a
        // later copy.
      }
      if (train_goes_on) {
        step_ = Step::kCopy;
        return kInterCopyGap;
      }
      // The train ends unacknowledged and finishes at this same instant.
      ReportAttempt(t, outcome, receiver_latched_, false);
      step_ = Step::kFinish;
      return Advance(t);
    }
    case Step::kFinish:
      // Done, or retry after the configured delay with a fresh train.
      step_ = Step::kTrainStart;
      return result_.acked || result_.tries >= params_.max_tries
                 ? kDone
                 : params_.retry_delay;
  }
  return kDone;
}

}  // namespace wsnlink::mac
