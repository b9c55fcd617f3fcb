// Shared radio medium for multi-transmitter simulations.
//
// The paper's Sec. VIII-D treats concurrent transmitters as a synthetic
// "collision factor" — an independent renewal process jamming a fraction of
// the air (interferer.h). That approximation cannot capture the feedback
// loop between contenders: a sender that backs off changes what the other
// sender's CCA sees. The Medium closes that loop: every node registers the
// frames it actually radiates, CCA queries it for ongoing transmissions,
// and receptions that overlap a concurrent frame collide (SINR capture or
// destructive loss).
//
// Modelling assumptions (documented in docs/ARCHITECTURE.md):
//  * Single collision domain: all senders are within carrier-sense range of
//    each other, so BusyAt() ignores geometry between senders and only the
//    receiver-side power (the registered RSSI at the sink) enters the
//    capture comparison.
//  * ACKs are not registered: 802.15.4 ACKs are sent after the turnaround
//    without a CCA, and their 352 us airtime is short next to data frames.
//    The ACK's own Transmit() runs at the data frame's end, so its overlap
//    window is the last 352 us of that data frame: it can only re-find
//    frames the data frame already survived, and counts them again in
//    `collisions`. No other frame can destroy an ACK.
//  * All queries are RNG-free, so attaching a medium never perturbs the
//    random streams of an uncontended stack — the N=1 network path stays
//    bit-identical to the single-link simulation.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/time.h"

namespace wsnlink::channel {

/// Aggregate activity statistics of a shared medium (diagnostics; summed
/// over the whole run).
struct MediumStats {
  /// Data frames registered by all nodes.
  std::uint64_t frames = 0;
  /// CCA queries that found another node's frame on the air.
  std::uint64_t busy_hits = 0;
  /// Receptions that overlapped a concurrent frame, ACKs included (an ACK
  /// only re-finds the overlaps of its own data frame).
  std::uint64_t collisions = 0;
  /// Collided receptions saved by SINR capture.
  std::uint64_t captures = 0;
};

/// The shared air between N sender stacks and one sink.
///
/// Not thread-safe: one Medium belongs to one simulation run (runs in a
/// sweep are embarrassingly parallel and each owns its medium).
class Medium {
 public:
  /// `capture_margin_db`: a reception survives an overlap when its RSSI at
  /// the sink exceeds the strongest overlapping frame by at least this
  /// margin (classic SINR capture threshold; 802.15.4 receivers capture at
  /// ~3 dB co-channel rejection).
  explicit Medium(double capture_margin_db = 3.0);

  Medium(const Medium&) = delete;
  Medium& operator=(const Medium&) = delete;

  /// Airtime of the longest 802.15.4 frame: a 127-byte MPDU plus the
  /// 6-byte PHY header at 32 us per byte (250 kb/s). A frame that began
  /// this long before an instant has ended by it.
  static constexpr sim::Duration kLongestFrameAirtime = (127 + 6) * 32;

  /// Registers a frame node `node` radiates over [start, end) whose mean
  /// received power at the sink is `sink_rssi_dbm`. Throws
  /// std::invalid_argument unless 0 < end - start <= kLongestFrameAirtime,
  /// and std::logic_error when `start` precedes an earlier frame's start
  /// (simulated time is monotonic).
  void Begin(int node, sim::Time start, sim::Time end, double sink_rssi_dbm);

  /// True when a frame from any node other than `listener` is on the air at
  /// `t` (single collision domain: every sender hears every other sender).
  /// O(1): `t < BusyUntil(listener)`, exact because every registered frame
  /// began at or before `t`. Throws std::logic_error when `t` precedes the
  /// latest registered start.
  [[nodiscard]] bool BusyAt(sim::Time t, int listener);

  /// End of the latest-ending frame registered by a node other than
  /// `listener` (0 before any). A CCA by `listener` at any t in [latest
  /// start, BusyUntil) is busy whatever is registered later, because new
  /// frames only add busy air. RNG-free and does not count a busy hit.
  [[nodiscard]] sim::Time BusyUntil(int listener) const noexcept {
    return listener == latest_.node ? runner_up_.end : latest_.end;
  }

  /// Strongest sink-side RSSI among frames from nodes other than `node`
  /// overlapping the open interval (start, end); nullopt when the air was
  /// clear. Pure: no RNG, no stats mutation. Scans back from the newest
  /// frame and stops at the first that began kLongestFrameAirtime or more
  /// before `start`, so it reads only the frames that can overlap.
  [[nodiscard]] std::optional<double> StrongestOverlapDbm(sim::Time start,
                                                         sim::Time end,
                                                         int node) const;

  /// Records the outcome of a collided reception (diagnostics).
  void NoteCollision(bool captured) noexcept;

  [[nodiscard]] double CaptureMarginDb() const noexcept {
    return capture_margin_db_;
  }

  [[nodiscard]] const MediumStats& Stats() const noexcept { return stats_; }

 private:
  struct Frame {
    int node = 0;
    sim::Time start = 0;
    sim::Time end = 0;
    double sink_rssi_dbm = 0.0;
  };

  /// The latest frame end of one node.
  struct NodeEnd {
    int node = -1;
    sim::Time end = 0;
  };

  std::vector<Frame> active_;  // in start order
  NodeEnd latest_;     // latest end over all nodes
  NodeEnd runner_up_;  // latest end over nodes other than latest_.node
  sim::Time latest_start_ = 0;
  double capture_margin_db_;
  MediumStats stats_;
};

}  // namespace wsnlink::channel
