// Receiver-side application sink.
//
// Counts unique deliveries (suppressing duplicates caused by lost ACKs),
// accumulates goodput bytes and records per-reception channel readings —
// the receiver mote's half of the paper's per-packet logging.
#pragma once

#include <cstdint>
#include <vector>

#include "mac/csma_mac.h"
#include "sim/time.h"
#include "trace/trace.h"
#include "util/stats.h"

namespace wsnlink::app {

/// One reception entry at the sink (duplicates included, flagged).
struct ReceptionRecord {
  std::uint64_t packet_id = 0;
  int payload_bytes = 0;
  sim::Time received_at = 0;
  double rssi_dbm = 0.0;
  double snr_db = 0.0;
  int lqi = 0;
  bool duplicate = false;
};

/// Collects deliveries; wire its OnDelivery into the link layer.
class PacketSink {
 public:
  /// Handles one decoded copy.
  void OnDelivery(const mac::DeliveryInfo& info);

  /// Attaches observability sinks (the "app.rx_unique" / "app.rx_duplicates"
  /// counters; the sink emits no events of its own — deliveries are traced
  /// at the link layer).
  void AttachTrace(const trace::TraceContext& ctx);

  /// Pre-sizes the reception log and the duplicate-suppression table (ids
  /// are sequential per run, so the caller knows both bounds up front).
  void Reserve(std::size_t packet_count);

  /// Redirects the sink's growable state into caller-owned vectors (cleared
  /// here, capacity kept) so a reused sweep worker fills warm heap blocks.
  /// Call before Reserve; the pointees must outlive the sink.
  void AttachStorage(std::vector<std::uint8_t>* seen,
                     std::vector<ReceptionRecord>* receptions);

  /// Unique packets received.
  [[nodiscard]] std::size_t UniqueCount() const noexcept {
    return unique_count_;
  }
  /// Duplicate copies received (retransmissions of already-received data).
  [[nodiscard]] std::uint64_t DuplicateCount() const noexcept {
    return duplicates_;
  }
  /// Total unique payload bytes delivered (the goodput numerator).
  [[nodiscard]] std::uint64_t UniquePayloadBytes() const noexcept {
    return unique_bytes_;
  }
  /// Time of the last unique delivery (0 if none).
  [[nodiscard]] sim::Time LastDeliveryAt() const noexcept { return last_at_; }

  [[nodiscard]] const std::vector<ReceptionRecord>& Receptions() const noexcept {
    return *receptions_;
  }

  /// RSSI / SNR / LQI statistics over all decoded copies.
  [[nodiscard]] const util::RunningStats& RssiStats() const noexcept {
    return rssi_stats_;
  }
  [[nodiscard]] const util::RunningStats& SnrStats() const noexcept {
    return snr_stats_;
  }
  [[nodiscard]] const util::RunningStats& LqiStats() const noexcept {
    return lqi_stats_;
  }

 private:
  /// Duplicate suppression: packet ids are small sequential integers, so a
  /// dense byte-per-id table beats a hash set on the delivery hot path.
  [[nodiscard]] bool MarkSeen(std::uint64_t packet_id);
  std::vector<std::uint8_t> own_seen_;
  std::vector<ReceptionRecord> own_receptions_;
  std::vector<std::uint8_t>* seen_ = &own_seen_;
  std::vector<ReceptionRecord>* receptions_ = &own_receptions_;
  std::size_t unique_count_ = 0;
  std::uint64_t duplicates_ = 0;
  std::uint64_t unique_bytes_ = 0;
  sim::Time last_at_ = 0;
  util::RunningStats rssi_stats_;
  util::RunningStats snr_stats_;
  util::RunningStats lqi_stats_;

  // Observability (null = off).
  trace::CounterRegistry* counters_ = nullptr;
  trace::CounterRegistry::Id id_rx_unique_ = 0;
  trace::CounterRegistry::Id id_rx_duplicates_ = 0;
};

}  // namespace wsnlink::app
