// Link layer: glues the transmit queue to the MAC and writes the packet log.
//
// The application calls Accept() per generated packet; the link layer
// serves packets FIFO through the (single-packet-at-a-time) MAC, records the
// full lifecycle of every packet — including queue drops — and mirrors
// receiver-side delivery notifications into the log.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "link/packet_log.h"
#include "link/transmit_queue.h"
#include "mac/mac.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace wsnlink::link {

/// Sender-side link layer.
class LinkLayer {
 public:
  /// Fired for every decoded copy at the receiver (after logging), so the
  /// application sink can count deliveries.
  using DeliveryCallback = std::function<void(const mac::DeliveryInfo&)>;

  /// Caller-owned growable buffers for scratch-mode construction (the
  /// zero-alloc sweep worker's recycled heap blocks). Null members fall
  /// back to the link layer's own storage.
  struct Storage {
    std::vector<QueuedPacket>* queue = nullptr;
    std::vector<std::pair<std::uint64_t, std::size_t>>* open_records = nullptr;
  };

  /// `simulator` and `mac` must outlive the link layer. `queue_capacity`
  /// is the paper's Q_max (>= 1, counting the in-service slot).
  LinkLayer(sim::Simulator& simulator, mac::Mac& mac, int queue_capacity);

  /// Scratch-mode constructor: identical behaviour, but the queue ring and
  /// open-record table live in `storage`'s pointees (which must outlive the
  /// link layer; cleared here, capacity kept).
  LinkLayer(sim::Simulator& simulator, mac::Mac& mac, int queue_capacity,
            Storage storage);

  /// Accepts one application packet (payload in [1, 114]). Returns false if
  /// it was dropped at the queue.
  bool Accept(std::uint64_t packet_id, int payload_bytes);

  void SetDeliveryCallback(DeliveryCallback cb) { on_delivery_ = std::move(cb); }

  /// Attaches observability sinks; the link layer emits the queue/service
  /// lifecycle events and maintains the "link.*" counters. Call before the
  /// first Accept(); the context's pointees must outlive the link layer.
  void AttachTrace(const trace::TraceContext& ctx);

  /// True once every accepted packet has completed (queue empty, MAC idle).
  [[nodiscard]] bool Idle() const noexcept;

  [[nodiscard]] const PacketLog& Log() const noexcept { return log_; }
  [[nodiscard]] PacketLog& MutableLog() noexcept { return log_; }
  [[nodiscard]] const TransmitQueue& Queue() const noexcept { return queue_; }

 private:
  void ServeNext();
  void OnSendDone(const mac::SendResult& result);
  void OnDelivery(const mac::DeliveryInfo& info);

  sim::Simulator& sim_;
  mac::Mac& mac_;
  TransmitQueue queue_;
  PacketLog log_;
  DeliveryCallback on_delivery_;

  // Index into log_.Packets() for each unfinished packet id. Live entries
  // are bounded by the queue capacity (queued + in-service packets), so a
  // flat array with linear lookup beats a hash map on the packet hot path.
  using OpenRecord = std::pair<std::uint64_t, std::size_t>;
  std::vector<OpenRecord> own_open_records_;
  std::vector<OpenRecord>* open_records_;  // &own_open_records_ or external
  [[nodiscard]] OpenRecord* FindOpen(std::uint64_t packet_id) noexcept;
  std::uint64_t in_service_id_ = 0;

  // Observability (null = off).
  trace::Tracer* tracer_ = nullptr;
  trace::CounterRegistry* counters_ = nullptr;
  std::int32_t node_ = 0;
  trace::CounterRegistry::Id id_accepted_ = 0;
  trace::CounterRegistry::Id id_queue_drops_ = 0;
  trace::CounterRegistry::Id id_served_ = 0;
  trace::CounterRegistry::Id id_completed_ = 0;
  trace::CounterRegistry::Id id_acked_ = 0;
  trace::CounterRegistry::Id id_deliveries_ = 0;
};

}  // namespace wsnlink::link
