#include "app/sink.h"

namespace wsnlink::app {

PacketSink::PacketSink(std::vector<ReceptionRecord>& receptions)
    : receptions_(receptions) {
  receptions_.clear();
}

void PacketSink::AttachTrace(const trace::TraceContext& ctx) {
  counters_ = ctx.counters;
  if (counters_ != nullptr) {
    id_rx_unique_ = counters_->Register("app.rx_unique");
    id_rx_duplicates_ = counters_->Register("app.rx_duplicates");
  }
}

void PacketSink::Reserve(std::size_t packet_count) {
  receptions_.reserve(packet_count);
}

void PacketSink::OnDelivery(const mac::DeliveryInfo& info, bool first_copy) {
  ReceptionRecord record;
  record.packet_id = info.packet_id;
  record.payload_bytes = info.payload_bytes;
  record.received_at = info.received_at;
  record.rssi_dbm = info.rssi_dbm;
  record.snr_db = info.snr_db;
  record.lqi = info.lqi;
  record.duplicate = !first_copy;
  if (first_copy) {
    ++unique_count_;
    unique_bytes_ += static_cast<std::uint64_t>(info.payload_bytes);
    last_at_ = info.received_at;
    if (counters_ != nullptr) counters_->Add(id_rx_unique_);
  } else {
    ++duplicates_;
    if (counters_ != nullptr) counters_->Add(id_rx_duplicates_);
  }

  rssi_stats_.Add(info.rssi_dbm);
  snr_stats_.Add(info.snr_db);
  lqi_stats_.Add(static_cast<double>(info.lqi));
  receptions_.push_back(record);
}

}  // namespace wsnlink::app
