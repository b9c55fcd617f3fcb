// Unslotted CSMA-CA MAC with acknowledgements and bounded retransmission.
//
// Models the beaconless IEEE 802.15.4 mode of the TinyOS 2.1 CC2420 stack
// that the paper's motes ran:
//
//   SPI-load -> [initial backoff -> CCA -> turnaround -> frame airtime ->
//                ACK or ACK-wait timeout -> (retry delay)] * up to N_maxTries
//
// The two MAC-layer knobs the paper sweeps are N_maxTries (maximum number of
// transmissions per packet, 1 = no retransmission) and D_retry (delay
// inserted before each retransmission). One packet is in flight at a time;
// the queue above the MAC (link layer) feeds the next packet on completion.
#pragma once

#include <cstdint>

#include "channel/channel.h"
#include "mac/mac.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "util/rng.h"

namespace wsnlink::mac {

/// MAC-layer configuration (the paper's N_maxTries and D_retry, plus the
/// PHY power level the frame is radiated with).
struct MacParams {
  /// Maximum number of transmissions, >= 1. 1 means no retransmission.
  int max_tries = 3;
  /// Delay before each retransmission (D_retry), >= 0.
  sim::Duration retry_delay = 0;
  /// CC2420 PA_LEVEL used for every attempt.
  int pa_level = 31;
};

/// The always-on CSMA-CA sender MAC.
class CsmaMac final : public Mac {
 public:
  /// All referenced collaborators must outlive the MAC.
  CsmaMac(sim::Simulator& simulator, channel::Channel& channel,
          MacParams params, util::Rng rng);

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

  [[nodiscard]] const MacParams& Params() const noexcept { return params_; }

  /// Cumulative count of CCA checks that found the channel busy.
  [[nodiscard]] std::uint64_t CcaBusyCount() const noexcept override {
    return cca_busy_;
  }

 private:
  /// The rungs of one attempt, in ladder order. A CCA that exhausts its
  /// congestion backoffs skips to kFinish.
  enum class Step : std::uint8_t {
    kBackoff,
    kCca,
    kTransmit,
    kOutcome,
    kFinish,
  };
  /// Advance's result once the packet is finished.
  static constexpr sim::Duration kDone = -1;

  /// Runs the current step at simulated time `t` and returns the wait
  /// until the next one, or kDone. The ladder's only implementation: Send
  /// drives it inline when no shared medium is attached, and OnStep drives
  /// it one event per step when one is. Either way every RNG draw, channel
  /// query, callback and trace event happens in the same order with the
  /// same timestamp.
  sim::Duration Advance(sim::Time t);
  /// Event driver: one Advance per event, completing in the last one.
  void OnStep();
  void Complete();
  void EmitRadioState(sim::Time at, trace::RadioState state);

  sim::Simulator& sim_;
  channel::Channel& channel_;
  MacParams params_;
  util::Rng rng_;
  DeliveryCallback on_delivery_;
  AttemptCallback on_attempt_;

  // In-flight send state.
  bool busy_ = false;
  std::uint64_t packet_id_ = 0;
  int payload_bytes_ = 0;
  int frame_bytes_ = 0;
  int tries_done_ = 0;
  bool delivered_any_ = false;
  bool acked_ = false;
  sim::Time accepted_at_ = 0;
  double tx_energy_uj_ = 0.0;
  sim::Duration listen_time_ = 0;
  Step step_ = Step::kBackoff;
  int cca_retries_left_ = 0;
  DoneCallback done_;

  std::uint64_t cca_busy_ = 0;

  // Observability (null = off).
  trace::Tracer* tracer_ = nullptr;
  trace::CounterRegistry* counters_ = nullptr;
  std::int32_t node_ = 0;
  trace::CounterRegistry::Id id_sends_ = 0;
  trace::CounterRegistry::Id id_tx_attempts_ = 0;
  trace::CounterRegistry::Id id_cca_busy_ = 0;
  trace::CounterRegistry::Id id_frames_decoded_ = 0;
  trace::CounterRegistry::Id id_acks_received_ = 0;
  trace::CounterRegistry::Id id_bytes_radiated_ = 0;
};

/// Maximum number of congestion backoffs per attempt before the attempt is
/// abandoned as if unacknowledged (bounds pathological interference).
inline constexpr int kMaxCcaRetries = 16;

}  // namespace wsnlink::mac
