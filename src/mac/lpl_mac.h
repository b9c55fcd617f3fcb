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

  void Send(std::uint64_t packet_id, int payload_bytes,
            DoneCallback done) override;

  [[nodiscard]] bool Busy() const override { return busy_; }

  void SetDeliveryCallback(DeliveryCallback cb) override {
    on_delivery_ = std::move(cb);
  }
  void SetAttemptCallback(AttemptCallback cb) override {
    on_attempt_ = std::move(cb);
  }

  void AttachTrace(const trace::TraceContext& ctx) override;

  [[nodiscard]] const LplParams& Params() const noexcept { return params_; }

  /// Receiver radio duty cycle implied by the parameters (fraction of time
  /// awake while idle): probe_duration / wakeup_interval.
  [[nodiscard]] double ReceiverIdleDutyCycle() const noexcept;

  /// Receiver idle-listening power in milliwatts, averaged over time
  /// (duty cycle * CC2420 RX power). The always-on CSMA receiver burns the
  /// full RX power instead; this quantifies LPL's receiver saving.
  [[nodiscard]] double ReceiverIdlePowerMw() const noexcept;

  /// Total copies radiated across all packets (diagnostics).
  [[nodiscard]] std::uint64_t CopiesSent() const noexcept { return copies_sent_; }

  /// Carrier-sense checks that found another node's frame on the air
  /// (always 0 without a shared medium: the solo LPL sender pre-dates
  /// multi-node and samples nothing before a train).
  [[nodiscard]] std::uint64_t CcaBusyCount() const noexcept override {
    return cca_busy_;
  }

 private:
  /// True if the receiver is awake at `t` (probe window each wakeup, plus
  /// it stays awake once a copy for the in-flight packet was decoded).
  [[nodiscard]] bool ReceiverAwake(sim::Time t) const;

  void StartTrain();
  /// Medium-only carrier sense before the train's first copy. Without a
  /// shared medium it falls straight through to SendCopy — no extra
  /// events, no RNG draws — keeping single-link runs bit-identical.
  void TrainCca(int retries_left);
  void BeginCopies();
  void SendCopy(sim::Time train_deadline);
  void FinishTrain(bool acked);
  void Complete();

  sim::Simulator& sim_;
  channel::Channel& channel_;
  LplParams params_;
  util::Rng rng_;
  DeliveryCallback on_delivery_;
  AttemptCallback on_attempt_;

  // Receiver wake schedule: wakes at phase_ + k * wakeup_interval.
  sim::Duration phase_ = 0;

  // In-flight state.
  bool busy_ = false;
  std::uint64_t packet_id_ = 0;
  int payload_bytes_ = 0;
  int frame_bytes_ = 0;
  int trains_done_ = 0;
  int copies_this_packet_ = 0;
  bool delivered_any_ = false;
  bool receiver_latched_ = false;  // receiver saw a copy: stays awake
  bool acked_ = false;
  sim::Time accepted_at_ = 0;
  double tx_energy_uj_ = 0.0;
  DoneCallback done_;

  std::uint64_t copies_sent_ = 0;
  std::uint64_t cca_busy_ = 0;

  // Observability (null = off).
  trace::Tracer* tracer_ = nullptr;
  trace::CounterRegistry* counters_ = nullptr;
  std::int32_t node_ = 0;
  trace::CounterRegistry::Id id_sends_ = 0;
  trace::CounterRegistry::Id id_trains_ = 0;
  trace::CounterRegistry::Id id_cca_busy_ = 0;
  trace::CounterRegistry::Id id_copies_ = 0;
  trace::CounterRegistry::Id id_frames_decoded_ = 0;
  trace::CounterRegistry::Id id_acks_received_ = 0;
  trace::CounterRegistry::Id id_bytes_radiated_ = 0;
};

}  // namespace wsnlink::mac
