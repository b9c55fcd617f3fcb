// Duty-cycled low-power-listening MAC (BoX-MAC-2 style).
//
// The paper's Sec. VIII-D names "MAC parameters related to periodic
// wake-ups" as a factor with great performance impact that its always-on
// experiments exclude. This MAC models the TinyOS default LPL scheme:
//
//  * The receiver sleeps and wakes every `wakeup_interval` for a short
//    channel probe; it stays awake only while receiving.
//  * The sender transmits back-to-back copies of the data frame (a
//    "packet train", the packetised preamble) for up to one full wakeup
//    interval; the copy that lands inside the receiver's wake window is
//    acknowledged and stops the train.
//  * A train that ends without an ACK counts as one transmission attempt;
//    up to `max_tries` trains are sent, separated by `retry_delay`.
//
// Energy per delivered bit now has two sides: the sender's train is much
// more expensive than a single CSMA frame, while the receiver's radio is
// asleep most of the time. The extension bench (ext_lpl_dutycycle) sweeps
// the wakeup interval to expose the resulting energy/delay trade-off.
#pragma once

#include <cstdint>

#include "channel/channel.h"
#include "mac/mac.h"
#include "sim/simulator.h"
#include "util/rng.h"

namespace wsnlink::mac {

/// LPL configuration.
struct LplParams {
  /// Receiver wakeup period. Must be > 0. TinyOS defaults: 100-1000 ms.
  sim::Duration wakeup_interval = 100 * sim::kMillisecond;
  /// Maximum number of trains per packet, >= 1.
  int max_tries = 3;
  /// Delay before each retry train, >= 0.
  sim::Duration retry_delay = 0;
  /// CC2420 PA_LEVEL for all copies.
  int pa_level = 31;
  /// Receiver wake-probe duration per wakeup (channel sampling window).
  sim::Duration probe_duration = 11 * sim::kMillisecond;
};

/// The duty-cycling sender MAC (with the receiver's wake schedule modelled
/// internally: this is a point-to-point link simulation).
class LplMac final : public Mac {
 public:
  LplMac(sim::Simulator& simulator, channel::Channel& channel,
         LplParams params, util::Rng rng);

  /// Also registers mac.lpl_trains and mac.lpl_copies.
  void AttachTrace(const trace::TraceContext& ctx) override;

  [[nodiscard]] const LplParams& Params() const noexcept { return params_; }

  /// Receiver radio duty cycle implied by the parameters (fraction of time
  /// awake while idle): probe_duration / wakeup_interval.
  [[nodiscard]] double ReceiverIdleDutyCycle() const noexcept;

  /// Receiver idle-listening power in milliwatts, averaged over time
  /// (duty cycle * CC2420 RX power). The always-on CSMA receiver burns the
  /// full RX power instead; this quantifies LPL's receiver saving.
  [[nodiscard]] double ReceiverIdlePowerMw() const noexcept;

 private:
  /// The rungs of one packet, in ladder order.
  enum class Step : std::uint8_t {
    kTrainStart,  ///< count the train, draw its backoff
    /// Carrier sense of the shared medium only (RNG-free). Once clear, or
    /// out of backoffs, the first copy goes out in the same step; without
    /// a medium it is always clear, so a single-link train draws nothing
    /// here.
    kTrainCca,
    kCopy,     ///< put one copy on the air
    kCopyEnd,  ///< decode and ACK; a train that ends unacked finishes here
    kFinish,   ///< done, or the next train after the retry delay
  };

  sim::Duration Advance(sim::Time t) override;

  /// True if the receiver is awake at `t` (probe window each wakeup, plus
  /// it stays awake once a copy for the in-flight packet was decoded).
  [[nodiscard]] bool ReceiverAwake(sim::Time t) const;

  LplParams params_;
  util::Rng rng_;

  // Receiver wake schedule: wakes at phase_ + k * wakeup_interval.
  sim::Duration phase_ = 0;

  // Ladder state of the packet in flight.
  Step step_ = Step::kTrainStart;
  int cca_retries_left_ = 0;
  int copies_ = 0;                 // copies radiated for this packet
  sim::Time train_deadline_ = 0;   // no copy may end after it
  bool receiver_latched_ = false;  // receiver saw a copy: stays awake

  trace::CounterRegistry::Id id_trains_ = 0;
  trace::CounterRegistry::Id id_copies_ = 0;
};

}  // namespace wsnlink::mac
