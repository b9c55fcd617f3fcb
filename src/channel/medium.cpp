#include "channel/medium.h"

#include <algorithm>
#include <stdexcept>

namespace wsnlink::channel {

namespace {

// How far back a finished frame can still matter to StrongestOverlapDbm.
// Receivers look back one frame airtime from the reception instant, at most
// the longest frame's. Twice that is a comfortable margin and bounds the
// active list by the frames begun in the last ~13 ms, whatever the run
// length. That is not a handful: in 400-packet contention_sweep runs
// (seeds 1-3) it held up to 63 frames at N=128 and 211 at N=512, which is
// why the overlap scan reads only the newest of them.
constexpr sim::Duration kMediumRetentionWindow =
    2 * Medium::kLongestFrameAirtime;

}  // namespace

Medium::Medium(double capture_margin_db)
    : capture_margin_db_(capture_margin_db) {
  if (capture_margin_db < 0.0) {
    throw std::invalid_argument("Medium: capture margin must be >= 0 dB");
  }
}

void Medium::Begin(int node, sim::Time start, sim::Time end,
                   double sink_rssi_dbm) {
  if (end <= start) {
    throw std::invalid_argument("Medium::Begin: frame must have end > start");
  }
  if (end - start > kLongestFrameAirtime) {
    throw std::invalid_argument(
        "Medium::Begin: frame outlasts the longest 802.15.4 frame");
  }
  if (start < latest_start_) {
    throw std::logic_error("Medium::Begin: frame starts before an earlier one");
  }
  latest_start_ = start;
  if (node == latest_.node) {
    latest_.end = std::max(latest_.end, end);
  } else if (end > latest_.end) {
    runner_up_ = latest_;
    latest_ = {node, end};
  } else if (end > runner_up_.end) {
    runner_up_ = {node, end};
  }
  // Prune from the front the frames that ended long before any query can
  // still reach them. Simulated time is monotonic, so everything retained
  // stays relevant.
  if (start > kMediumRetentionWindow) {
    const sim::Time horizon = start - kMediumRetentionWindow;
    active_.erase(active_.begin(),
                  std::find_if(active_.begin(), active_.end(),
                               [horizon](const Frame& f) {
                                 return f.end >= horizon;
                               }));
  }
  active_.push_back({node, start, end, sink_rssi_dbm});
  ++stats_.frames;
}

bool Medium::BusyAt(sim::Time t, int listener) {
  if (t < latest_start_) {
    throw std::logic_error("Medium::BusyAt: query precedes a registered start");
  }
  const bool busy = t < BusyUntil(listener);
  if (busy) ++stats_.busy_hits;
  return busy;
}

std::optional<double> Medium::StrongestOverlapDbm(sim::Time start,
                                                  sim::Time end,
                                                  int node) const {
  std::optional<double> strongest;
  // Frames are in start order and none outlasts kLongestFrameAirtime, so
  // the first frame (from the newest) that began that long before `start`
  // ended by `start`, and so did every earlier one.
  for (auto it = active_.rbegin(); it != active_.rend(); ++it) {
    const Frame& f = *it;
    if (f.start <= start - kLongestFrameAirtime) break;
    if (f.node == node) continue;
    // Open-interval overlap: frames that merely touch at an endpoint do not
    // collide (the receiver resynchronises between back-to-back frames).
    if (f.start < end && f.end > start) {
      if (!strongest || f.sink_rssi_dbm > *strongest) {
        strongest = f.sink_rssi_dbm;
      }
    }
  }
  return strongest;
}

void Medium::NoteCollision(bool captured) noexcept {
  ++stats_.collisions;
  if (captured) ++stats_.captures;
}

}  // namespace wsnlink::channel
