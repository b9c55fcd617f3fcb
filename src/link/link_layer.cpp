#include "link/link_layer.h"

#include <stdexcept>

namespace wsnlink::link {

LinkLayer::LinkLayer(sim::Simulator& simulator, mac::Mac& mac,
                     int queue_capacity)
    : sim_(simulator), mac_(mac), capacity_(queue_capacity) {
  if (queue_capacity < 1) {
    throw std::invalid_argument("LinkLayer: queue capacity must be >= 1");
  }
  mac_.SetDeliveryCallback(
      [this](const mac::DeliveryInfo& info) { OnDelivery(info); });
  mac_.SetAttemptCallback(
      [this](const AttemptRecord& record) { log_.AddAttempt(record); });
}

void LinkLayer::AttachTrace(const trace::TraceContext& ctx) {
  tracer_ = ctx.tracer;
  counters_ = ctx.counters;
  node_ = ctx.node;
  if (counters_ != nullptr) {
    id_queue_accepted_ = counters_->Register("queue.accepted");
    id_queue_drops_ = counters_->Register("queue.drops");
    id_accepted_ = counters_->Register("link.accepted");
    id_drops_ = counters_->Register("link.queue_drops");
    id_served_ = counters_->Register("link.served");
    id_completed_ = counters_->Register("link.completed");
    id_acked_ = counters_->Register("link.acked");
    id_deliveries_ = counters_->Register("link.deliveries");
  }
}

bool LinkLayer::Accept(std::uint64_t packet_id, int payload_bytes) {
  if (packet_id != log_.Packets().size() + 1) {
    throw std::logic_error("LinkLayer::Accept: packet ids must run 1, 2, 3, "
                           "... in call order");
  }
  PacketRecord record;
  record.id = packet_id;
  record.payload_bytes = payload_bytes;
  record.arrived_at = sim_.Now();
  record.queue_depth_at_arrival = occupancy_;
  record.dropped_at_queue = occupancy_ >= capacity_;
  log_.AddPacket(record);

  if (tracer_ != nullptr) {
    tracer_->Emit({sim_.Now(), trace::EventType::kPacketArrival,
                   trace::Layer::kLink, packet_id, occupancy_, payload_bytes,
                   0.0, node_});
  }

  if (record.dropped_at_queue) {
    if (counters_ != nullptr) {
      counters_->Add(id_queue_drops_);
      counters_->Add(id_drops_);
    }
    if (tracer_ != nullptr) {
      tracer_->Emit({sim_.Now(), trace::EventType::kQueueDrop,
                     trace::Layer::kLink, packet_id, occupancy_, 0, 0.0,
                     node_});
    }
    return false;
  }

  ++occupancy_;
  if (counters_ != nullptr) {
    counters_->Add(id_queue_accepted_);
    counters_->Add(id_accepted_);
  }
  if (tracer_ != nullptr) {
    tracer_->Emit({sim_.Now(), trace::EventType::kQueueEnqueue,
                   trace::Layer::kLink, packet_id, occupancy_, 0, 0.0,
                   node_});
  }

  if (occupancy_ == 1) ServeNext();  // the link was idle
  return true;
}

void LinkLayer::ServeNext() {
  while (log_.Packets()[next_].dropped_at_queue) ++next_;
  PacketRecord& record = log_.MutablePacket(next_++);
  record.service_start = sim_.Now();

  if (counters_ != nullptr) counters_->Add(id_served_);
  if (tracer_ != nullptr) {
    tracer_->Emit({sim_.Now(), trace::EventType::kServiceStart,
                   trace::Layer::kLink, record.id, occupancy_,
                   record.payload_bytes, 0.0, node_});
  }

  mac_.Send(record.id, record.payload_bytes,
            [this](const mac::SendResult& result) { OnSendDone(result); });
}

void LinkLayer::OnSendDone(const mac::SendResult& result) {
  PacketRecord& record = Record(result.packet_id);
  record.completed_at = result.completed_at;
  record.acked = result.acked;
  record.delivered = result.delivered;
  record.tries = result.tries;
  record.tx_energy_uj = result.tx_energy_uj;
  record.listen_time = result.listen_time;

  if (counters_ != nullptr) {
    counters_->Add(id_completed_);
    if (result.acked) counters_->Add(id_acked_);
  }
  if (tracer_ != nullptr) {
    tracer_->Emit({sim_.Now(), trace::EventType::kPacketCompleted,
                   trace::Layer::kLink, result.packet_id, result.tries,
                   (result.acked ? trace::kFlagAcked : 0) |
                       (result.delivered ? trace::kFlagDelivered : 0),
                   result.tx_energy_uj, node_});
  }

  if (--occupancy_ > 0) ServeNext();
}

void LinkLayer::OnDelivery(const mac::DeliveryInfo& info) {
  if (counters_ != nullptr) counters_->Add(id_deliveries_);
  if (tracer_ != nullptr) {
    tracer_->Emit({info.received_at, trace::EventType::kPacketDelivered,
                   trace::Layer::kLink, info.packet_id, info.attempt,
                   info.payload_bytes, info.rssi_dbm, node_});
  }
  PacketRecord& record = Record(info.packet_id);
  const bool first_copy = record.first_delivered_at == kNever;
  if (first_copy) {
    record.first_delivered_at = info.received_at;
    record.rssi_dbm = info.rssi_dbm;
    record.snr_db = info.snr_db;
    record.lqi = info.lqi;
  }
  if (on_delivery_) on_delivery_(info, first_copy);
}

}  // namespace wsnlink::link
