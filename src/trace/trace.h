// Event tracing: typed lifecycle events in a bounded ring buffer.
//
// The paper's methodology is built on raw per-packet logs (RSSI, attempt
// counts, queue sizes — Sec. II-C); the end-of-run PacketRecord summarises
// them but hides the in-between. A Tracer captures the full event stream of
// one run — packet arrivals, queue transitions, transmission attempts, CCA
// busy verdicts, ACKs, LPL trains and radio state changes — so a single run
// can be replayed, invariant-checked, or loaded into chrome://tracing.
//
// Design constraints:
//  * Near-free when disabled: every layer holds a nullable Tracer pointer
//    and the off path is a single branch. No allocation, no formatting.
//  * Bounded: a fixed-capacity ring buffer; when full the earliest-emitted
//    events are overwritten and counted, never reallocated mid-run (the
//    emit path must not perturb timing-sensitive benchmarks).
//  * Deterministic: events carry simulated time only. Two runs with the
//    same seed produce byte-identical event streams regardless of host,
//    wall clock, or sweep thread count.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "trace/counters.h"

namespace wsnlink::trace {

/// Which stack layer emitted an event (also the chrome://tracing row).
enum class Layer : std::uint8_t {
  kSim = 0,
  kPhy = 1,
  kMac = 2,
  kLink = 3,
  kApp = 4,
};

/// Sender radio state for kRadioState events (arg0).
enum class RadioState : std::uint8_t {
  kIdle = 0,    ///< not serving a packet
  kListen = 1,  ///< RX: backoff, CCA, ACK wait
  kTx = 2,      ///< frame on air
};

/// Typed lifecycle events. The arg0/arg1/value payload per type is
/// documented in docs/TRACING.md; the short version lives next to each
/// enumerator.
enum class EventType : std::uint8_t {
  /// App handed a packet to the stack. arg0 = payload bytes.
  kPacketGenerated = 0,
  /// Link layer saw the arrival. arg0 = queue occupancy before the offer.
  kPacketArrival = 1,
  /// Packet admitted to the transmit queue. arg0 = occupancy after.
  kQueueEnqueue = 2,
  /// Packet dropped, queue full. arg0 = occupancy (== capacity).
  kQueueDrop = 3,
  /// MAC service began (SPI load start). arg0 = occupancy incl. in-service.
  kServiceStart = 4,
  /// MAC finished with the packet. arg0 = tries, arg1 = flags
  /// (bit0 acked, bit1 delivered).
  kPacketCompleted = 5,
  /// Receiver decoded a copy. arg0 = attempt index, value = RSSI dBm.
  kPacketDelivered = 6,
  /// Data frame started radiating. arg0 = attempt index, arg1 = frame bytes.
  kTxAttemptStart = 7,
  /// Attempt outcome known. arg0 = attempt index, arg1 = flags
  /// (bit0 data decoded, bit1 acked), value = SNR dB.
  kTxAttemptResult = 8,
  /// ACK decoded by the sender. arg0 = attempt index.
  kAckReceived = 9,
  /// CCA found the channel busy. arg0 = congestion backoffs left.
  kCcaBusy = 10,
  /// Sender radio state change. arg0 = RadioState.
  kRadioState = 11,
  /// LPL: a packet train (wakeup-covering copy burst) began.
  /// arg0 = train index (1-based).
  kLplTrainStart = 12,
  /// LPL: one copy of the frame radiated. arg0 = train index,
  /// arg1 = copies so far for this packet.
  kLplCopySent = 13,
  /// LPL: the duty-cycled receiver decoded a copy and latched awake.
  /// arg0 = train index.
  kLplReceiverWake = 14,
};

/// Number of EventType enumerators (for tables indexed by type).
inline constexpr std::size_t kEventTypeCount = 15;

/// Stable display name of an event type (e.g. "TxAttemptStart").
[[nodiscard]] const char* EventTypeName(EventType type) noexcept;

/// Stable display name of a layer (e.g. "mac").
[[nodiscard]] const char* LayerName(Layer layer) noexcept;

/// One traced event. Plain data; meaning of arg0/arg1/value depends on
/// `type` (see EventType). Comparable so determinism tests can require
/// bit-identical streams.
struct TraceEvent {
  sim::Time at = 0;  ///< simulated microseconds
  EventType type = EventType::kPacketGenerated;
  Layer layer = Layer::kSim;
  std::uint64_t packet_id = 0;
  std::int64_t arg0 = 0;
  std::int64_t arg1 = 0;
  double value = 0.0;
  /// Which node's stack emitted the event (0 in single-link runs). Last
  /// member so layers that predate multi-node can keep their 7-field
  /// aggregate literals; the scoped value is stamped by the emitting layer
  /// from its TraceContext.
  std::int32_t node = 0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/// Flag bits of kPacketCompleted.arg1 and kTxAttemptResult.arg1.
inline constexpr std::int64_t kFlagAcked = 1;      // kPacketCompleted bit0
inline constexpr std::int64_t kFlagDelivered = 2;  // kPacketCompleted bit1
inline constexpr std::int64_t kFlagDataReceived = 1;  // kTxAttemptResult bit0
inline constexpr std::int64_t kFlagAckReceived = 2;   // kTxAttemptResult bit1

/// Bounded ring buffer of TraceEvents for one run.
///
/// Not thread-safe: one Tracer belongs to one simulation run (runs in a
/// sweep are embarrassingly parallel and each owns its Tracer, which is
/// what keeps multi-threaded sweeps deterministic).
class Tracer {
 public:
  /// Default capacity comfortably holds a 4500-packet run (~15 events per
  /// packet at moderate loss) without overwriting.
  static constexpr std::size_t kDefaultCapacity = 1 << 18;

  /// Requires capacity >= 1.
  explicit Tracer(std::size_t capacity = kDefaultCapacity);

  /// Records one event; O(1). When full, overwrites the event emitted
  /// longest ago. Events may be emitted ahead of simulated time (the MAC
  /// emits a packet's whole ladder when no shared medium is attached), so
  /// emission order need not be time order.
  void Emit(const TraceEvent& event) noexcept {
    ring_[static_cast<std::size_t>(emitted_ % ring_.size())] = event;
    ++emitted_;
  }

  /// The retained events sorted by time; equal times keep their emission
  /// order. Copies out of the ring; call once after the run.
  [[nodiscard]] std::vector<TraceEvent> Events() const;

  /// Total events emitted, including overwritten ones.
  [[nodiscard]] std::uint64_t EmittedCount() const noexcept { return emitted_; }

  /// Events lost to ring overwrite (EmittedCount() - retained).
  [[nodiscard]] std::uint64_t DroppedCount() const noexcept {
    return emitted_ > ring_.size() ? emitted_ - ring_.size() : 0;
  }

  [[nodiscard]] std::size_t Capacity() const noexcept { return ring_.size(); }

  /// Forgets all recorded events (capacity unchanged).
  void Clear() noexcept { emitted_ = 0; }

 private:
  std::vector<TraceEvent> ring_;
  std::uint64_t emitted_ = 0;
};

/// The pair of observability sinks a layer can be attached to. Either
/// pointer may be null: a null tracer skips event emission, a null registry
/// skips counting. Cheap to copy; the pointees must outlive the run.
struct TraceContext {
  Tracer* tracer = nullptr;
  CounterRegistry* counters = nullptr;
  /// Node id stamped into emitted events (multi-node runs attach one
  /// context per stack; single-link runs keep the default 0).
  std::int32_t node = 0;

  [[nodiscard]] bool Active() const noexcept {
    return tracer != nullptr || counters != nullptr;
  }
};

}  // namespace wsnlink::trace
