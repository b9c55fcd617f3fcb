// Link layer: the bounded FIFO transmit queue on top of the MAC (the
// paper's Q_max knob), kept in the packet log.
//
// The application calls Accept() per generated packet. Packet ids run 1, 2,
// 3, ... and packet n is record n - 1 of the log, which records the full
// lifecycle of every packet (queue drops included) and mirrors
// receiver-side delivery notifications. The log is also the queue: the link
// layer keeps only an occupancy count and a cursor over the records after
// the one in service, and serves the records it passes that were not
// dropped, in arrival order, through the (single-packet-at-a-time) MAC.
//
// Queue semantics: the queue holds every packet the stack has accepted but
// not finished — the in-service packet occupies one slot. Q_max = 1
// therefore means "no queue": while one packet is in service, any arrival
// is dropped. Q_max = 30 buffers 29 waiting packets behind the in-service
// one. Drops are counted for the PLR_queue metric.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include "link/packet_log.h"
#include "mac/mac.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace wsnlink::link {

/// Sender-side link layer.
class LinkLayer {
 public:
  /// Fired for every decoded copy at the receiver (after logging), so the
  /// application sink can count deliveries. `first_copy` is true for the
  /// packet's first decoded copy and false for duplicates (a lost ACK made
  /// the sender retransmit a packet the receiver already had).
  using DeliveryCallback =
      std::function<void(const mac::DeliveryInfo&, bool first_copy)>;

  /// `queue_capacity` is the paper's Q_max (>= 1, counting the in-service
  /// packet; std::invalid_argument otherwise). `simulator` and `mac` must
  /// outlive the link layer.
  LinkLayer(sim::Simulator& simulator, mac::Mac& mac, int queue_capacity);

  /// Accepts one application packet (payload in [1, 114]). Ids must run 1,
  /// 2, 3, ... in call order (std::logic_error otherwise). Returns false if
  /// the packet was dropped at the queue.
  bool Accept(std::uint64_t packet_id, int payload_bytes);

  void SetDeliveryCallback(DeliveryCallback cb) { on_delivery_ = std::move(cb); }

  /// Attaches observability sinks; the link layer emits the queue/service
  /// lifecycle events and maintains the "link.*" and "queue.*" counters.
  /// Call before the first Accept(); the context's pointees must outlive the
  /// link layer.
  void AttachTrace(const trace::TraceContext& ctx);

  /// True once every accepted packet has completed (queue empty, MAC idle).
  [[nodiscard]] bool Idle() const noexcept { return occupancy_ == 0; }

  [[nodiscard]] const PacketLog& Log() const noexcept { return log_; }
  [[nodiscard]] PacketLog& MutableLog() noexcept { return log_; }

 private:
  /// Starts serving the oldest waiting packet. Requires a waiting packet
  /// and none in service.
  void ServeNext();
  void OnSendDone(const mac::SendResult& result);
  void OnDelivery(const mac::DeliveryInfo& info);
  [[nodiscard]] PacketRecord& Record(std::uint64_t packet_id) {
    return log_.MutablePacket(packet_id - 1);
  }

  sim::Simulator& sim_;
  mac::Mac& mac_;
  int capacity_;
  PacketLog log_;
  DeliveryCallback on_delivery_;

  // The queue: packets accepted and not completed, the in-service one
  // included (so a packet is in service whenever this is positive), and
  // the index of the first record after the one in service.
  int occupancy_ = 0;
  std::size_t next_ = 0;

  // Observability (null = off).
  trace::Tracer* tracer_ = nullptr;
  trace::CounterRegistry* counters_ = nullptr;
  std::int32_t node_ = 0;
  trace::CounterRegistry::Id id_accepted_ = 0;
  trace::CounterRegistry::Id id_drops_ = 0;
  // "queue.accepted" / "queue.drops" repeat the two above under the names
  // the queue's own counters carried, so every snapshot keeps its bytes.
  trace::CounterRegistry::Id id_queue_accepted_ = 0;
  trace::CounterRegistry::Id id_queue_drops_ = 0;
  trace::CounterRegistry::Id id_served_ = 0;
  trace::CounterRegistry::Id id_completed_ = 0;
  trace::CounterRegistry::Id id_acked_ = 0;
  trace::CounterRegistry::Id id_deliveries_ = 0;
};

}  // namespace wsnlink::link
