// MAC-layer base class, shared report types and the one ladder driver.
//
// Two MAC implementations live behind this class: the always-on unslotted
// CSMA-CA of the paper's experiments (csma_mac.h) and a duty-cycled
// low-power-listening MAC (lpl_mac.h) covering the paper's future-work
// factor "MAC parameters related to periodic wake-ups". The link layer and
// simulation runner only see this class.
//
// Each MAC is one step function over its own ladder, Advance(t) → wait |
// kDone. Mac owns everything else: Send's checks and per-packet reset, the
// SPI-load lead-in, the two drivers that run Advance, the completion
// hand-off, the observer callbacks and the counters both MACs keep.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "channel/channel.h"
#include "sim/simulator.h"
#include "sim/time.h"
#include "trace/trace.h"

namespace wsnlink::mac {

/// What happened to one send request, reported via the done callback.
struct SendResult {
  std::uint64_t packet_id = 0;
  /// True if the sender received an ACK (link-layer success).
  bool acked = false;
  /// True if the receiver decoded at least one copy of the data frame
  /// (possible even when unacked, if only the ACK was lost).
  bool delivered = false;
  /// Number of attempts used (CSMA frame attempts, LPL trains).
  int tries = 0;
  /// When the MAC accepted the packet (start of SPI load).
  sim::Time accepted_at = 0;
  /// When the MAC finished with the packet (ACK processed / final timeout).
  sim::Time completed_at = 0;
  /// Total transmit energy radiated for this packet, microjoules
  /// (all attempts, data frames only; ACKs are receiver energy).
  double tx_energy_uj = 0.0;
  /// Total bytes radiated over all attempts (data frames on air).
  int radiated_bytes = 0;
  /// Time the sender's radio spent in RX/listen mode for this packet
  /// (backoffs, turnarounds, ACK waits) — the energy component the paper's
  /// Eq. 2 deliberately excludes but a platform power budget includes.
  /// The LPL MAC does not model its sender's listening and reports 0.
  sim::Duration listen_time = 0;

  friend bool operator==(const SendResult&, const SendResult&) = default;
};

/// Per-copy delivery notification for the receiver side (fires at data
/// frame end for every successfully decoded copy, including duplicates).
struct DeliveryInfo {
  std::uint64_t packet_id = 0;
  int payload_bytes = 0;
  sim::Time received_at = 0;
  double rssi_dbm = 0.0;
  double snr_db = 0.0;
  int lqi = 0;
  /// 1 for the first attempt of the packet, incrementing per retry.
  int attempt = 0;

  friend bool operator==(const DeliveryInfo&, const DeliveryInfo&) = default;
};

/// Outcome of one radio transmission attempt, as the attempt callback
/// reports it and link::PacketLog keeps it (the attempt-level analysis
/// behind Fig. 6's PER-vs-SNR study).
struct AttemptRecord {
  std::uint64_t packet_id = 0;
  int attempt = 0;  ///< 1-based within the packet
  int payload_bytes = 0;
  sim::Time at = 0;  ///< end of the frame on air
  double rssi_dbm = 0.0;
  double snr_db = 0.0;
  /// Data frame decoded by the receiver.
  bool data_received = false;
  /// ACK made it back (the attempt counts as acknowledged).
  bool acked = false;

  friend bool operator==(const AttemptRecord&, const AttemptRecord&) = default;
};

/// Maximum number of congestion backoffs before a carrier-sense check gives
/// up (bounds pathological interference). CSMA then abandons the attempt
/// as if unacknowledged; LPL sends its train anyway.
inline constexpr int kMaxCcaRetries = 16;

/// Sender-side MAC entity: one packet in flight at a time.
class Mac {
 public:
  using DoneCallback = std::function<void(const SendResult&)>;
  using DeliveryCallback = std::function<void(const DeliveryInfo&)>;
  using AttemptCallback = std::function<void(const AttemptRecord&)>;

  Mac(const Mac&) = delete;
  Mac& operator=(const Mac&) = delete;
  virtual ~Mac() = default;

  /// Starts transmitting one packet (payload in [1, 114]); requires no
  /// send in progress. Completion is reported via `done`.
  ///
  /// The ladder starts after the frame's SPI load into the radio. Without
  /// a shared medium nothing else touches this channel between steps, so
  /// Send runs the whole ladder now with explicit timestamps and schedules
  /// only the completion, which must run at its true time because it
  /// serves the next queued packet. With a medium attached, other nodes
  /// change the air between steps, so each step runs as its own event,
  /// except a CSMA CCA the medium already proves busy: a frame another
  /// node has begun covers it, and later frames only add busy air. Such a
  /// CCA touches only this node's state and the medium's busy tally, so
  /// the step before it runs it inline (see OnStep). Either way this
  /// node's RNG draws, channel queries, callbacks and trace events happen
  /// in the same order with the same timestamps.
  void Send(std::uint64_t packet_id, int payload_bytes, DoneCallback done);

  /// True while a send is in progress.
  [[nodiscard]] bool Busy() const noexcept { return busy_; }

  /// Installs the receiver-side delivery observer (may be empty).
  void SetDeliveryCallback(DeliveryCallback cb) {
    on_delivery_ = std::move(cb);
  }

  /// Installs the per-attempt observer (may be empty).
  void SetAttemptCallback(AttemptCallback cb) { on_attempt_ = std::move(cb); }

  /// Attaches observability sinks (event tracer and/or counter registry)
  /// and registers the counters every MAC keeps: mac.sends, mac.cca_busy,
  /// mac.frames_decoded, mac.acks_received and phy.bytes_radiated. The
  /// context's pointees must outlive the MAC; call before the first Send().
  virtual void AttachTrace(const trace::TraceContext& ctx);

  /// Cumulative count of carrier-sense checks that found the channel busy
  /// (also exported as the "mac.cca_busy" counter when one is attached).
  /// LPL senses only a shared medium, so its count is 0 on a single link.
  [[nodiscard]] std::uint64_t CcaBusyCount() const noexcept {
    return cca_busy_;
  }

 protected:
  /// Advance's result once the packet is finished.
  static constexpr sim::Duration kDone = -1;

  /// All referenced collaborators must outlive the MAC.
  Mac(sim::Simulator& simulator, channel::Channel& channel)
      : sim_(simulator), channel_(channel) {}

  /// Runs the ladder's current step at simulated time `t` and returns the
  /// wait until the next one, or kDone with the ladder back on its first
  /// step, ready for the next packet.
  virtual sim::Duration Advance(sim::Time t) = 0;

  /// Congestion backoffs left to the CCA the ladder runs next, or -1 when
  /// the event driver must run the next step as its own event. Only a CCA
  /// that a busy medium alone makes busy may report a count.
  [[nodiscard]] virtual int NextCcaRetriesLeft() const noexcept { return -1; }

  /// The sender radio changed state at `at`: Send reports kListen and the
  /// completion kIdle. CSMA traces these; LPL traces its trains instead.
  virtual void OnRadioState(sim::Time /*at*/, trace::RadioState /*state*/) {}

  /// Emits a MAC-layer trace event for the packet in flight.
  void Trace(sim::Time t, trace::EventType type, std::int64_t arg0,
             std::int64_t arg1 = 0, double value = 0.0) const {
    if (tracer_ != nullptr) {
      tracer_->Emit({t, type, trace::Layer::kMac, result_.packet_id, arg0,
                     arg1, value, node_});
    }
  }

  /// A carrier-sense check at `t` found the channel busy.
  void CountCcaBusy(sim::Time t, int retries_left);

  /// Puts one data frame on the air at `t` (energy, bytes, medium) and
  /// returns its airtime.
  sim::Duration Radiate(sim::Time t, int pa_level);

  /// The receiver decoded the frame that ended at `t`.
  void Deliver(sim::Time t, const channel::TransmissionOutcome& outcome);

  /// The receiver's ACK for the frame that ended at `t` crosses the
  /// (symmetric) channel; true if the sender decodes it.
  bool AckReceived(double tx_dbm, sim::Time t);

  /// Reports the attempt whose last frame ended at `t` to the observer.
  void ReportAttempt(sim::Time t, const channel::TransmissionOutcome& outcome,
                     bool data_received, bool acked) const;

  sim::Simulator& sim_;
  channel::Channel& channel_;

  // The packet in flight; Advance accumulates its result in place.
  SendResult result_;
  int payload_bytes_ = 0;
  int frame_bytes_ = 0;

  // Observability (null = off).
  trace::Tracer* tracer_ = nullptr;
  trace::CounterRegistry* counters_ = nullptr;
  std::int32_t node_ = 0;

 private:
  /// Event driver: one Advance per event, completing in the last one,
  /// plus the medium-proven busy CCAs that follow it.
  void OnStep();
  void Complete();

  bool busy_ = false;
  DoneCallback done_;
  DeliveryCallback on_delivery_;
  AttemptCallback on_attempt_;
  std::uint64_t cca_busy_ = 0;

  trace::CounterRegistry::Id id_sends_ = 0;
  trace::CounterRegistry::Id id_cca_busy_ = 0;
  trace::CounterRegistry::Id id_frames_decoded_ = 0;
  trace::CounterRegistry::Id id_acks_received_ = 0;
  trace::CounterRegistry::Id id_bytes_radiated_ = 0;
};

}  // namespace wsnlink::mac
