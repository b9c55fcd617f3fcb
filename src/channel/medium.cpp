#include "channel/medium.h"

#include <algorithm>
#include <stdexcept>

namespace wsnlink::channel {

namespace {

// How far back a finished frame can still matter to any query. Receivers
// look back one frame airtime from the reception instant; the largest
// 802.15.4 frame is 133 bytes at 32 us/byte = 4256 us. Twice that is a
// comfortable margin and keeps the active list a handful of entries
// regardless of run length.
constexpr sim::Duration kMediumRetentionWindow = 8'512;

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
  // Prune frames that ended long before any query can still reach them.
  // Simulated time is monotonic, so everything retained stays relevant.
  if (start > kMediumRetentionWindow) {
    const sim::Time horizon = start - kMediumRetentionWindow;
    std::erase_if(active_,
                  [horizon](const Frame& f) { return f.end < horizon; });
  }
  active_.push_back({node, start, end, sink_rssi_dbm});
  ++stats_.frames;
}

bool Medium::BusyAt(sim::Time t, int listener) {
  for (const Frame& f : active_) {
    if (f.node != listener && f.start <= t && t < f.end) {
      ++stats_.busy_hits;
      return true;
    }
  }
  return false;
}

std::optional<double> Medium::StrongestOverlapDbm(sim::Time start,
                                                  sim::Time end,
                                                  int node) const {
  std::optional<double> strongest;
  for (const Frame& f : active_) {
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
