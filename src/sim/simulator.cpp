#include "sim/simulator.h"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

namespace wsnlink::sim {

void Simulator::Reset() noexcept {
  // Release pending events through the normal path: callbacks destroyed,
  // slots recycled.
  for (std::uint32_t& head : heads_) {
    while (head != kNoSlot) {
      const std::uint32_t slot = head;
      head = slots_[slot].next;
      ReleaseSlot(slot);
    }
  }
  // Back to the single default lane, capacities kept.
  heads_.assign(1, kNoSlot);
  tails_.assign(1, kNoSlot);
  tree_.assign(1, kIdleKey);
  stale_ = true;
  now_ = 0;
  current_lane_ = 0;
  executed_ = 0;
  counters_ = nullptr;
}

void Simulator::ConfigureLanes(std::uint32_t count) {
  if (count < 1 || count > kMaxLanes) {
    throw std::invalid_argument(
        "Simulator::ConfigureLanes: lane count must be in [1, 65536]");
  }
  if (std::any_of(heads_.begin(), heads_.end(),
                  [](std::uint32_t head) { return head != kNoSlot; })) {
    throw std::logic_error("Simulator::ConfigureLanes: events are pending");
  }
  heads_.assign(count, kNoSlot);
  tails_.assign(count, kNoSlot);
  tree_.assign(std::bit_ceil(count), kIdleKey);
  // A node holds at most two pending events, so a network run's pool never
  // grows past this.
  slots_.reserve(2 * static_cast<std::size_t>(count));
  stale_ = true;
  current_lane_ = 0;
}

void Simulator::SetCurrentLane(std::uint32_t lane) {
  if (lane >= heads_.size()) {
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
    free_head_ = slots_[slot].next;
    return slot;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void Simulator::ReleaseSlot(std::uint32_t slot) noexcept {
  Slot& s = slots_[slot];
  s.fn.Reset();
  s.next = free_head_;
  free_head_ = slot;
}

std::uint64_t Simulator::LaneKey(std::size_t lane) const noexcept {
  if (heads_[lane] == kNoSlot) return kIdleKey;
  return static_cast<std::uint64_t>(slots_[heads_[lane]].at) << kLaneBits |
         lane;
}

// Plays every match below `node` from the lanes' current keys, storing each
// loser, and returns the subtree's winner. Leaves sit at tree_.size() + lane.
std::uint64_t Simulator::Build(std::size_t node) noexcept {
  const std::size_t width = tree_.size();
  if (node >= width) {
    // Padding leaves past the last lane never win.
    const std::size_t lane = node - width;
    return lane < heads_.size() ? LaneKey(lane) : kIdleKey;
  }
  const std::uint64_t left = Build(2 * node);
  const std::uint64_t right = Build(2 * node + 1);
  tree_[node] = std::max(left, right);
  return std::min(left, right);
}

// Replays the matches on `lane`'s leaf-to-root path. Valid when `lane` was
// the winner and only its key changed since the tree was last consistent.
// Each match's outcome is a coin flip, so it swaps through a mask instead of
// a branch the compiler would otherwise emit and the CPU mispredict.
void Simulator::Replay(std::uint32_t lane) noexcept {
  std::uint64_t key = LaneKey(lane);
  for (std::size_t node = (tree_.size() + lane) / 2; node > 0; node /= 2) {
    const std::uint64_t other = tree_[node];
    const std::uint64_t swap =
        (key ^ other) & (std::uint64_t{0} - std::uint64_t{other < key});
    tree_[node] = other ^ swap;  // the loser
    key ^= swap;                 // the winner plays on
  }
  tree_[0] = key;
}

void Simulator::Schedule(Duration delay, EventFn fn) {
  if (delay < 0) throw std::invalid_argument("Simulator::Schedule: negative delay");
  if (delay >= kTimeLimit - now_) {
    throw std::invalid_argument(
        "Simulator::Schedule: time beyond the key's time field (2^47 us)");
  }
  ScheduleAt(now_ + delay, std::move(fn));
}

void Simulator::ScheduleAt(Time at, EventFn fn) {
  if (at < now_) throw std::invalid_argument("Simulator::ScheduleAt: time in the past");
  if (at >= kTimeLimit) {
    throw std::invalid_argument(
        "Simulator::ScheduleAt: time beyond the key's time field (2^47 us)");
  }
  if (!fn) throw std::invalid_argument("Simulator::ScheduleAt: empty callback");
  const std::uint32_t slot = AcquireSlot();
  Slot& s = slots_[slot];
  s.at = at;
  s.fn = std::move(fn);
  // Insert after every event due at or before `at`, so equal times keep
  // scheduling order; an event due no earlier than the lane's last goes
  // straight to the tail.
  const std::uint32_t lane = current_lane_;
  std::uint32_t* link = &heads_[lane];
  if (*link != kNoSlot && slots_[tails_[lane]].at <= at) {
    link = &slots_[tails_[lane]].next;
  } else {
    while (*link != kNoSlot && slots_[*link].at <= at) {
      link = &slots_[*link].next;
    }
  }
  s.next = *link;
  *link = slot;
  if (s.next == kNoSlot) tails_[lane] = slot;
  // Only the running lane's path is replayed after its callback.
  if (lane != running_lane_) stale_ = true;
  if (counters_ != nullptr) counters_->Add(id_scheduled_);
}

bool Simulator::Step() {
  if (running_lane_ != kNoLane) {
    throw std::logic_error("Simulator::Step: called from inside an event callback");
  }
  if (stale_) {
    tree_[0] = Build(1);
    stale_ = false;
  }
  const std::uint64_t top = tree_[0];
  if (top == kIdleKey) return false;
  const auto lane = static_cast<std::uint32_t>(top & (kMaxLanes - 1));
  const std::uint32_t slot = heads_[lane];
  Slot& s = slots_[slot];
  heads_[lane] = s.next;
  now_ = s.at;
  // The event executes in its scheduler's lane, so events it schedules in
  // turn inherit that lane (node-local causality keeps its own order).
  current_lane_ = lane;
  // Move the callback out and recycle the slot *before* invoking: the
  // callback will typically schedule follow-up events that reuse it.
  EventFn fn = std::move(s.fn);
  ReleaseSlot(slot);
  ++executed_;
  if (counters_ != nullptr) counters_->Add(id_executed_);
  // The lane's key changed when its head left; replay its path once the
  // callback has scheduled its follow-ups, also when the callback throws.
  struct FinishOnExit {
    Simulator& sim;
    std::uint32_t lane;
    ~FinishOnExit() {
      sim.running_lane_ = kNoLane;
      if (!sim.stale_) sim.Replay(lane);
    }
  } finish{*this, lane};
  running_lane_ = lane;
  fn();
  return true;
}

std::size_t Simulator::Run() {
  std::size_t count = 0;
  while (Step()) ++count;
  return count;
}

}  // namespace wsnlink::sim
