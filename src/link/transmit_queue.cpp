#include "link/transmit_queue.h"

namespace wsnlink::link {

TransmitQueue::TransmitQueue(int capacity, std::vector<QueuedPacket>& ring)
    : capacity_(capacity), ring_(ring) {
  if (capacity < 1) {
    throw std::invalid_argument("TransmitQueue: capacity must be >= 1");
  }
  // `capacity` slots: while one packet is in service, up to capacity - 1
  // can wait; between Offer and StartService (nothing in service yet) the
  // waiting count itself can reach capacity.
  ring_.clear();
  ring_.resize(static_cast<std::size_t>(capacity_));
}

int TransmitQueue::Occupancy() const noexcept {
  return static_cast<int>(count_) + (in_service_ ? 1 : 0);
}

bool TransmitQueue::Full() const noexcept { return Occupancy() >= capacity_; }

void TransmitQueue::AttachCounters(trace::CounterRegistry* registry) {
  counters_ = registry;
  if (counters_ == nullptr) return;
  id_accepted_ = counters_->Register("queue.accepted");
  id_drops_ = counters_->Register("queue.drops");
  if (accepted_ > 0) counters_->Add(id_accepted_, accepted_);
  if (drops_ > 0) counters_->Add(id_drops_, drops_);
}

bool TransmitQueue::Offer(const QueuedPacket& packet) {
  if (Full()) {
    ++drops_;
    if (counters_ != nullptr) counters_->Add(id_drops_);
    return false;
  }
  ring_[(head_ + count_) % ring_.size()] = packet;
  ++count_;
  ++accepted_;
  if (counters_ != nullptr) counters_->Add(id_accepted_);
  return true;
}

QueuedPacket TransmitQueue::StartService() {
  if (in_service_) {
    throw std::logic_error("TransmitQueue::StartService: already serving");
  }
  if (count_ == 0) {
    throw std::logic_error("TransmitQueue::StartService: nothing waiting");
  }
  QueuedPacket head = ring_[head_];
  head_ = (head_ + 1) % ring_.size();
  --count_;
  in_service_ = true;
  return head;
}

void TransmitQueue::FinishService() {
  if (!in_service_) {
    throw std::logic_error("TransmitQueue::FinishService: nothing in service");
  }
  in_service_ = false;
}

}  // namespace wsnlink::link
