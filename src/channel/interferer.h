// Concurrent-transmitter interference model.
//
// Sec. VIII-D: "One [factor] is concurrent transmission, which can cause
// extra packet loss due to packet collisions." This module models a nearby
// 802.15.4 transmitter that is not coordinated with our link: it puts
// frames on the air with a configurable offered load (duty cycle). Our
// sender's CCA defers while an interferer frame is on air, but collisions
// still happen when the interferer starts during our own frame (the
// hidden-window problem CCA cannot close).
#pragma once

#include "sim/time.h"
#include "util/rng.h"

namespace wsnlink::channel {

/// Parameters of the concurrent transmitter.
struct InterfererParams {
  /// Fraction of time its frames occupy the air, in [0, 1). 0 disables it.
  double duty_cycle = 0.0;
  /// On-air duration of one interferer frame.
  sim::Duration frame_duration = 4 * sim::kMillisecond;
  /// Received power of the interferer at our receiver, dBm.
  double rx_power_dbm = -70.0;
  /// Capture margin: our frame survives an overlap if its RSSI exceeds the
  /// interferer by at least this many dB.
  double capture_margin_db = 3.0;
};

/// Renewal process of interferer frames: exponential gaps sized so the
/// long-run on-air fraction equals the duty cycle.
class InterfererProcess {
 public:
  InterfererProcess(InterfererParams params, util::Rng rng);

  /// True if an interferer frame is on air at `t` (t non-decreasing).
  bool ActiveAt(sim::Time t);

  /// True if any interferer frame overlaps [start, end].
  /// Requires start <= end; both non-decreasing across calls.
  bool ActiveDuring(sim::Time start, sim::Time end);

  [[nodiscard]] const InterfererParams& Params() const noexcept {
    return params_;
  }

 private:
  void AdvanceTo(sim::Time t);

  InterfererParams params_;
  util::Rng rng_;
  bool enabled_;
  sim::Time frame_start_ = 0;
  sim::Time frame_end_ = -1;
  bool started_ = false;
};

}  // namespace wsnlink::channel
