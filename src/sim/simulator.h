// Discrete-event simulation kernel.
//
// A single-threaded event loop over per-lane event lists under a loser
// tree. A lane is one node of a multi-node run; single-link runs use the
// single default lane. Events execute in (time, lane, per-lane scheduling
// order), and an event's follow-ups inherit its lane. Multi-node output
// bytes depend on this tie-break: when two nodes' events land on the same
// microsecond, whichever runs first decides who senses the channel busy,
// so a plain global scheduling order would reorder them and change
// contention results. The contention ladder golden
// (tests/golden/contention_ladder.csv) pins the lane order.
//
// Each lane keeps its pending events in a list ordered by time and, at
// equal times, by scheduling order. A loser tree over the lanes, padded to
// a power of two, holds each lane's key (head time << 16) | lane, so one
// 64-bit comparison gives the whole tie-break. A node schedules only into
// its own lane, so Step replays the running lane's leaf-to-root path once,
// after the callback returns: log2(lanes) branch-free matches along a fixed
// path, however many events the callback scheduled. Scheduling into any
// other lane (before Run, or after SetCurrentLane) marks the tree stale,
// and the next Step rebuilds it in O(lanes). A node never holds more than
// two pending events (its MAC's next step and its traffic generator's next
// packet), so an insert walks a short list from its head; an event due no
// earlier than its lane's last appends at the tail.
//
// The time field of a key holds times below kTimeLimit (2^47 us, about
// 4.5 years). Three calls are rejected rather than allowed to break the
// order: scheduling at or beyond kTimeLimit (std::invalid_argument),
// ConfigureLanes with events pending and Step from inside a callback (both
// std::logic_error).
//
// Event storage is pooled: each scheduled event lives in a reusable slot of
// a per-simulator slab (no per-event heap allocation), its callback in
// inline small-buffer storage (see event_fn.h), and a slot's link serves
// both its lane's list and the free list. Scheduling an event costs zero
// allocations in steady state, which the campaign hot path depends on.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event_fn.h"
#include "sim/time.h"
#include "trace/trace.h"

namespace wsnlink::sim {

/// The event loop.
class Simulator {
 public:
  /// Largest lane table ConfigureLanes accepts (the key's 16-bit lane
  /// field), and so the most senders a network run may have.
  static constexpr std::uint32_t kMaxLanes = 1u << 16;

  /// Events must be scheduled strictly before this time (the key's time
  /// field; about 4.5 years of simulated time).
  static constexpr Time kTimeLimit = Time{1} << 47;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Starts at 0.
  [[nodiscard]] Time Now() const noexcept { return now_; }

  /// Schedules `fn` to run at `Now() + delay`. Requires delay >= 0 and
  /// Now() + delay < kTimeLimit.
  void Schedule(Duration delay, EventFn fn);

  /// Schedules `fn` at an absolute time. Requires Now() <= at < kTimeLimit.
  void ScheduleAt(Time at, EventFn fn);

  /// Runs until the queue is empty. Returns the number of events executed.
  std::size_t Run();

  /// Executes at most one event; returns false if the queue is empty.
  /// Throws std::logic_error when called from inside an event callback.
  bool Step();

  /// Total number of events executed so far.
  [[nodiscard]] std::uint64_t EventsExecuted() const noexcept { return executed_; }

  /// Declares `count` scheduling lanes (>= 1, <= 65536) and reserves the
  /// slot pool at two slots per lane. Call before any event is scheduled:
  /// with events pending it throws std::logic_error. The default is one
  /// lane.
  void ConfigureLanes(std::uint32_t count);

  /// Selects the lane subsequent Schedule/ScheduleAt calls queue into.
  /// Event execution overwrites this with the fired event's own lane, so
  /// follow-up events inherit their scheduler's lane automatically; set it
  /// explicitly only around out-of-event scheduling (per-node Start()).
  void SetCurrentLane(std::uint32_t lane);

  /// Attaches observability sinks; the kernel maintains the
  /// "sim.events_scheduled" / "sim.events_executed" counters. The
  /// context's pointees must outlive the simulator.
  void AttachTrace(const trace::TraceContext& ctx);

  /// Rewinds the kernel for a fresh run while KEEPING the slot pool and
  /// lane-table capacity (the zero-alloc reuse contract of the sweep hot
  /// path). Pending callbacks are destroyed, the clock and counters return
  /// to zero, the lanes go back to the single default lane, and the trace
  /// attachment is dropped (re-attach per run).
  void Reset() noexcept;

 private:
  struct Slot {
    Time at = 0;
    std::uint32_t next = kNoSlot;  // lane list link, or free list link
    EventFn fn;
  };

  static constexpr std::uint32_t kNoSlot = ~0u;
  static constexpr std::uint32_t kNoLane = ~0u;
  /// The lane lives in a key's low bits, the head time above it.
  static constexpr unsigned kLaneBits = 16;
  /// Key of a lane with nothing pending: above every real key.
  static constexpr std::uint64_t kIdleKey = ~std::uint64_t{0};

  std::uint32_t AcquireSlot();
  void ReleaseSlot(std::uint32_t slot) noexcept;
  [[nodiscard]] std::uint64_t LaneKey(std::size_t lane) const noexcept;
  std::uint64_t Build(std::size_t node) noexcept;
  void Replay(std::uint32_t lane) noexcept;

  Time now_ = 0;
  std::uint32_t current_lane_ = 0;
  std::uint32_t running_lane_ = kNoLane;  // lane of the executing callback
  bool stale_ = true;                     // tree_ needs a rebuild
  std::uint64_t executed_ = 0;
  std::vector<Slot> slots_;                  // event pool
  std::vector<std::uint32_t> heads_ = {kNoSlot};  // per-lane list heads
  std::vector<std::uint32_t> tails_ = {kNoSlot};  // per-lane list tails
  // Loser tree over the lanes padded to a power of two: tree_[0] holds the
  // winning key, tree_[n] for n >= 1 the loser of the match at node n.
  std::vector<std::uint64_t> tree_ = {kIdleKey};
  std::uint32_t free_head_ = kNoSlot;

  trace::CounterRegistry* counters_ = nullptr;
  trace::CounterRegistry::Id id_scheduled_ = 0;
  trace::CounterRegistry::Id id_executed_ = 0;
};

}  // namespace wsnlink::sim
