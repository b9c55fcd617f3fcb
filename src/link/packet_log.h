// Per-packet metadata records — the schema of the paper's dataset.
//
// Both motes in the paper logged per-packet information (RSSI, LQI, time of
// receiving, actual transmission number, actual queue size, ...). The
// sender-side PacketRecord and the attempt-level AttemptRecord mirror that
// schema so the synthetic campaign can emit an equivalent dataset and so the
// metrics layer can compute every figure from raw logs rather than from
// simulator internals.
#pragma once

#include <cstdint>
#include <vector>

#include "mac/mac.h"
#include "sim/time.h"

namespace wsnlink::link {

/// Sentinel for "never happened" timestamps.
inline constexpr sim::Time kNever = -1;

/// Lifecycle of one application packet at the sender.
struct PacketRecord {
  std::uint64_t id = 0;
  int payload_bytes = 0;
  /// When the application handed the packet to the stack.
  sim::Time arrived_at = 0;
  /// Queue occupancy (including any in-service packet) seen on arrival.
  int queue_depth_at_arrival = 0;
  /// True if the packet was dropped because the queue was full.
  bool dropped_at_queue = false;
  /// When the MAC started serving the packet (SPI load begin); kNever if
  /// dropped at the queue.
  sim::Time service_start = kNever;
  /// When the MAC finished with the packet; kNever if dropped at the queue.
  sim::Time completed_at = kNever;
  /// Link-layer ACK outcome.
  bool acked = false;
  /// Receiver decoded at least one copy.
  bool delivered = false;
  /// Transmissions performed (0 if dropped at queue).
  int tries = 0;
  /// Transmit energy spent on this packet, microjoules.
  double tx_energy_uj = 0.0;
  /// Sender radio RX/listen time for this packet (backoffs, ACK waits).
  sim::Duration listen_time = 0;
  /// First time the receiver decoded a copy; kNever if undelivered.
  sim::Time first_delivered_at = kNever;
  /// Channel readings of the first delivered copy (0 if undelivered).
  double rssi_dbm = 0.0;
  double snr_db = 0.0;
  int lqi = 0;

  friend bool operator==(const PacketRecord&, const PacketRecord&) = default;
};

/// One radio transmission attempt (for PER-vs-SNR analysis, Fig. 6): the
/// record the MAC reports, logged as is.
using mac::AttemptRecord;

/// Append-only logs for one simulation run.
class PacketLog {
 public:
  void AddPacket(PacketRecord record) { packets_.push_back(record); }
  void AddAttempt(AttemptRecord record) { attempts_.push_back(record); }

  [[nodiscard]] const std::vector<PacketRecord>& Packets() const noexcept {
    return packets_;
  }
  /// Mutable access for in-flight lifecycle updates. Requires index valid.
  [[nodiscard]] PacketRecord& MutablePacket(std::size_t index) {
    return packets_[index];
  }
  [[nodiscard]] const std::vector<AttemptRecord>& Attempts() const noexcept {
    return attempts_;
  }

  void Reserve(std::size_t packets, std::size_t attempts) {
    packets_.reserve(packets);
    attempts_.reserve(attempts);
  }

  /// Takes ownership of recycled vectors (cleared here, capacity kept) so a
  /// reused sweep worker logs into warm heap blocks instead of growing
  /// fresh ones each run.
  void AdoptStorage(std::vector<PacketRecord>&& packets,
                    std::vector<AttemptRecord>&& attempts) {
    packets_ = std::move(packets);
    attempts_ = std::move(attempts);
    packets_.clear();
    attempts_.clear();
  }

  /// Returns the log's vectors to the recycling pool (this log becomes
  /// empty). The counterpart of AdoptStorage, called after the caller has
  /// finished reducing the records to metrics.
  void ExtractStorage(std::vector<PacketRecord>& packets,
                      std::vector<AttemptRecord>& attempts) {
    packets = std::move(packets_);
    attempts = std::move(attempts_);
  }

 private:
  std::vector<PacketRecord> packets_;
  std::vector<AttemptRecord> attempts_;
};

}  // namespace wsnlink::link
