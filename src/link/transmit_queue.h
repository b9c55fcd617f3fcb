// Bounded FIFO transmit queue on top of the MAC (the paper's Q_max knob).
//
// Semantics: the queue holds every packet the stack has accepted but not
// finished — the in-service packet occupies one slot. Q_max = 1 therefore
// means "no queue": while one packet is in service, any arrival is dropped.
// Q_max = 30 buffers 29 waiting packets behind the in-service one. Drops are
// counted for the PLR_queue metric.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/time.h"
#include "trace/counters.h"

namespace wsnlink::link {

/// Entry waiting for service.
struct QueuedPacket {
  std::uint64_t id = 0;
  int payload_bytes = 0;
  sim::Time arrived_at = 0;
};

/// Bounded FIFO with an explicit in-service slot.
///
/// Storage is a fixed ring of `capacity` slots (the bound is the point of
/// the queue), sized once at construction — no per-packet allocation.
class TransmitQueue {
 public:
  /// Requires capacity >= 1 (capacity counts the in-service slot). The ring
  /// lives in the caller's `ring` (resized to `capacity` here, reusing its
  /// heap block across runs), which must outlive the queue.
  TransmitQueue(int capacity, std::vector<QueuedPacket>& ring);

  TransmitQueue(const TransmitQueue&) = delete;
  TransmitQueue& operator=(const TransmitQueue&) = delete;

  /// Total occupancy: waiting packets plus the in-service packet.
  [[nodiscard]] int Occupancy() const noexcept;

  /// True if an arrival right now would be dropped.
  [[nodiscard]] bool Full() const noexcept;

  /// Offers an arrival. Returns false (and counts a drop) when full.
  bool Offer(const QueuedPacket& packet);

  /// True if a packet is currently in service.
  [[nodiscard]] bool InService() const noexcept { return in_service_; }

  /// Moves the head waiting packet into service and returns it.
  /// Requires !InService() and a non-empty waiting queue.
  QueuedPacket StartService();

  /// True if any packet is waiting (not counting in-service).
  [[nodiscard]] bool HasWaiting() const noexcept { return count_ > 0; }

  /// Marks the in-service packet finished. Requires InService().
  void FinishService();

  [[nodiscard]] std::uint64_t Drops() const noexcept { return drops_; }
  [[nodiscard]] std::uint64_t Accepted() const noexcept { return accepted_; }

  /// Mirrors the accept/drop counters into `registry` as "queue.accepted" /
  /// "queue.drops" so queue-loss observability rides the same snapshot
  /// pipeline as every other layer (the paper's rho-driven PLR_queue
  /// analysis reads these from campaign roll-ups). Any counts accumulated
  /// before attaching are carried over; nullptr detaches.
  void AttachCounters(trace::CounterRegistry* registry);

 private:
  int capacity_;
  std::vector<QueuedPacket>& ring_;  // borrowed
  std::size_t head_ = 0;             // oldest waiting packet
  std::size_t count_ = 0;            // waiting packets (excl. in-service)
  bool in_service_ = false;
  std::uint64_t drops_ = 0;
  std::uint64_t accepted_ = 0;
  trace::CounterRegistry* counters_ = nullptr;
  trace::CounterRegistry::Id id_accepted_ = 0;
  trace::CounterRegistry::Id id_drops_ = 0;
};

}  // namespace wsnlink::link
