// Discrete-event simulation kernel.
//
// A single-threaded event loop over a binary heap keyed by
// (time, sequence). The sequence number makes scheduling FIFO-stable for
// events at the same timestamp, which keeps traces deterministic.
//
// The sequence is *lane-structured*: the high 16 bits carry the lane of the
// scheduling context (a lane = one node of a multi-node run; single-link
// runs use the single default lane, whose keys are numerically identical to
// a plain global counter) and the low 48 bits a per-lane counter. Same-time
// events therefore order by (lane, lane-local order) instead of global
// scheduling order. Multi-node output bytes depend on this tie-break: when
// two nodes' events land on the same microsecond, whichever runs first
// decides who senses the channel busy, so a plain global counter would
// reorder them and change contention results. The contention ladder
// golden (tests/golden/contention_ladder.csv) pins the lane order.
//
// Event storage is pooled: each scheduled event lives in a reusable slot of
// a per-simulator slab (no per-event heap allocation), its callback in
// inline small-buffer storage (see event_fn.h). The heap is an array of
// slot indices, so scheduling an event costs zero allocations in steady
// state, which the campaign hot path depends on.
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

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Current simulated time. Starts at 0.
  [[nodiscard]] Time Now() const noexcept { return now_; }

  /// Schedules `fn` to run at `Now() + delay`. Requires delay >= 0.
  void Schedule(Duration delay, EventFn fn);

  /// Schedules `fn` at an absolute time. Requires at >= Now().
  void ScheduleAt(Time at, EventFn fn);

  /// Runs until the queue is empty. Returns the number of events executed.
  std::size_t Run();

  /// Executes at most one event; returns false if the queue is empty.
  bool Step();

  /// Total number of events executed so far.
  [[nodiscard]] std::uint64_t EventsExecuted() const noexcept { return executed_; }

  /// Declares `count` scheduling lanes (>= 1, <= 65536) and resets every
  /// lane counter. Call before the run starts; the default is one lane,
  /// under which keys are numerically identical to a global counter.
  void ConfigureLanes(std::uint32_t count);

  /// Selects the lane subsequent Schedule/ScheduleAt calls stamp into their
  /// keys. Event execution overwrites this with the fired event's own lane,
  /// so follow-up events inherit their scheduler's lane automatically; set
  /// it explicitly only around out-of-event scheduling (per-node Start()).
  void SetCurrentLane(std::uint32_t lane);

  /// Attaches observability sinks; the kernel maintains the
  /// "sim.events_scheduled" / "sim.events_executed" counters. The
  /// context's pointees must outlive the simulator.
  void AttachTrace(const trace::TraceContext& ctx);

  /// Rewinds the kernel for a fresh run while KEEPING the slot pool and
  /// heap capacity (the zero-alloc reuse contract of the sweep hot path).
  /// Pending callbacks are destroyed, the clock and counters return to
  /// zero, and the trace attachment is dropped (re-attach per run).
  void Reset() noexcept;

 private:
  struct Slot {
    std::uint32_t next_free = kNoSlot;
    EventFn fn;
  };

  // Heap entries carry the (time, seq) sort key inline so sift comparisons
  // stay within the heap array instead of chasing slot indirections.
  struct HeapEntry {
    Time at;
    std::uint64_t seq;
    std::uint32_t slot;
  };

  static constexpr std::uint32_t kNoSlot = ~0u;
  /// Lane id lives in the key's top bits, the per-lane counter below it.
  static constexpr unsigned kLaneShift = 48;

  static bool Before(const HeapEntry& a, const HeapEntry& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  std::uint32_t AcquireSlot();
  void ReleaseSlot(std::uint32_t slot) noexcept;
  void SiftUp(std::uint32_t pos) noexcept;
  void SiftDown(std::uint32_t pos) noexcept;

  Time now_ = 0;
  std::vector<std::uint64_t> lane_seq_ = {0};  // per-lane key counters
  std::uint32_t current_lane_ = 0;
  std::uint64_t executed_ = 0;
  std::vector<Slot> slots_;      // event pool (grows to peak queue depth)
  std::vector<HeapEntry> heap_;  // binary heap over (time, seq)
  std::uint32_t free_head_ = kNoSlot;

  trace::CounterRegistry* counters_ = nullptr;
  trace::CounterRegistry::Id id_scheduled_ = 0;
  trace::CounterRegistry::Id id_executed_ = 0;
};

}  // namespace wsnlink::sim
