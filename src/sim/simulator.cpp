#include "sim/simulator.h"

#include <stdexcept>
#include <utility>

namespace wsnlink::sim {

void Simulator::Reset() noexcept {
  // Release pending events through the normal path: callbacks destroyed,
  // slots recycled.
  for (const HeapEntry& entry : heap_) ReleaseSlot(entry.slot);
  heap_.clear();
  now_ = 0;
  lane_seq_.assign(1, 0);  // back to the single default lane, capacity kept
  current_lane_ = 0;
  executed_ = 0;
  counters_ = nullptr;
}

void Simulator::ConfigureLanes(std::uint32_t count) {
  if (count < 1 || count > kMaxLanes) {
    throw std::invalid_argument(
        "Simulator::ConfigureLanes: lane count must be in [1, 65536]");
  }
  lane_seq_.assign(count, 0);
  current_lane_ = 0;
}

void Simulator::SetCurrentLane(std::uint32_t lane) {
  if (lane >= lane_seq_.size()) {
    throw std::invalid_argument("Simulator::SetCurrentLane: unknown lane");
  }
  current_lane_ = lane;
}

void Simulator::AttachTrace(const trace::TraceContext& ctx) {
  counters_ = ctx.counters;
  if (counters_ != nullptr) {
    id_scheduled_ = counters_->Register("sim.events_scheduled");
    id_executed_ = counters_->Register("sim.events_executed");
  }
}

std::uint32_t Simulator::AcquireSlot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t slot = free_head_;
    free_head_ = slots_[slot].next_free;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::ReleaseSlot(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.fn.Reset();
  s.next_free = free_head_;
  free_head_ = slot;
}

void Simulator::SiftUp(std::uint32_t pos) noexcept {
  const HeapEntry entry = heap_[pos];
  while (pos > 0) {
    const std::uint32_t parent = (pos - 1) / 2;
    if (!Before(entry, heap_[parent])) break;
    heap_[pos] = heap_[parent];
    pos = parent;
  }
  heap_[pos] = entry;
}

void Simulator::SiftDown(std::uint32_t pos) noexcept {
  const HeapEntry entry = heap_[pos];
  const auto size = static_cast<std::uint32_t>(heap_.size());
  while (true) {
    std::uint32_t child = 2 * pos + 1;
    if (child >= size) break;
    if (child + 1 < size && Before(heap_[child + 1], heap_[child])) ++child;
    if (!Before(heap_[child], entry)) break;
    heap_[pos] = heap_[child];
    pos = child;
  }
  heap_[pos] = entry;
}

void Simulator::Schedule(Duration delay, EventFn fn) {
  if (delay < 0) throw std::invalid_argument("Simulator::Schedule: negative delay");
  ScheduleAt(now_ + delay, std::move(fn));
}

void Simulator::ScheduleAt(Time at, EventFn fn) {
  if (at < now_) throw std::invalid_argument("Simulator::ScheduleAt: time in the past");
  if (!fn) throw std::invalid_argument("Simulator::ScheduleAt: empty callback");
  const std::uint32_t slot = AcquireSlot();
  slots_[slot].fn = std::move(fn);
  const std::uint64_t key =
      (static_cast<std::uint64_t>(current_lane_) << kLaneShift) |
      lane_seq_[current_lane_]++;
  heap_.push_back(HeapEntry{at, key, slot});
  SiftUp(static_cast<std::uint32_t>(heap_.size() - 1));
  if (counters_ != nullptr) counters_->Add(id_scheduled_);
}

bool Simulator::Step() {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_[0];
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) SiftDown(0);
  now_ = top.at;
  // The event executes in its scheduler's lane, so events it schedules in
  // turn inherit that lane (node-local causality keeps its own key stream).
  current_lane_ = static_cast<std::uint32_t>(top.seq >> kLaneShift);
  // Move the callback out and recycle the slot *before* invoking: the
  // callback will typically schedule follow-up events that reuse it.
  EventFn fn = std::move(slots_[top.slot].fn);
  ReleaseSlot(top.slot);
  ++executed_;
  if (counters_ != nullptr) counters_->Add(id_executed_);
  fn();
  return true;
}

std::size_t Simulator::Run() {
  std::size_t count = 0;
  while (Step()) ++count;
  return count;
}

}  // namespace wsnlink::sim
