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
//  * ACKs are not registered: 802.15.4 ACKs are sent inside the turnaround
//    window without a CCA, and their 352 us airtime is negligible next to
//    data frames. They can still be *lost* to a collision (the ACK's own
//    Transmit() runs the overlap check like any frame).
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
  /// Receptions that overlapped a concurrent frame.
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

  /// Registers a frame node `node` radiates over [start, end) whose mean
  /// received power at the sink is `sink_rssi_dbm`. `start` must be
  /// non-decreasing across calls (simulated time is monotonic).
  void Begin(int node, sim::Time start, sim::Time end, double sink_rssi_dbm);

  /// True when a frame from any node other than `listener` is on the air at
  /// `t` (single collision domain: every sender hears every other sender).
  [[nodiscard]] bool BusyAt(sim::Time t, int listener);

  /// Strongest sink-side RSSI among frames from nodes other than `node`
  /// overlapping the open interval (start, end); nullopt when the air was
  /// clear. Pure: no RNG, no stats mutation.
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

  std::vector<Frame> active_;
  double capture_margin_db_;
  MediumStats stats_;
};

}  // namespace wsnlink::channel
