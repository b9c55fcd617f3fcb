// The composed link channel.
//
// Combines path loss, a static spatial shadowing offset, the temporal
// shadowing process, the noise-floor process and a BER curve into a single
// object the PHY asks one question of: "this frame, these bytes, this power,
// now — does it arrive, and with what RSSI/LQI?".
#pragma once

#include "channel/ber.h"
#include "channel/interferer.h"
#include "channel/medium.h"
#include "channel/mobility.h"
#include "channel/noise.h"
#include "channel/path_loss.h"
#include "channel/shadowing.h"
#include "sim/time.h"
#include "util/rng.h"

namespace wsnlink::channel {

/// Full channel configuration for one sender-receiver placement.
struct ChannelConfig {
  /// Sender-receiver distance in metres. Must be > 0.
  double distance_m = 20.0;
  PathLossParams path_loss{};
  /// Static per-position shadowing offset in dB. The default 0 reproduces
  /// the calibrated "hallway mean" placement; experiment sweeps that want
  /// spot-to-spot scatter (Fig. 3) sample it via PathLoss.
  double spatial_shadow_db = 0.0;
  /// Temporal shadowing. If `use_default_temporal_sigma` is true the sigma
  /// is derived from distance (DefaultTemporalSigmaDb), reproducing the
  /// paper's larger deviation at 35 m.
  ShadowingParams shadowing{};
  bool use_default_temporal_sigma = true;
  NoiseParams noise{};
  /// Concurrent 802.15.4 transmitter (Sec. VIII-D's collision factor);
  /// duty_cycle = 0 (default) disables it.
  InterfererParams interferer{};
  /// Node mobility (Sec. VIII-D's mobility factor); speed 0 (default)
  /// keeps the distance fixed at `distance_m`.
  MobilityParams mobility{};
  /// Receiver sensitivity: frames whose RSSI falls below this are never
  /// detected regardless of SNR (CC2420 datasheet: -95 dBm typical; we use
  /// the harder floor where the preamble cannot be acquired at all).
  double sensitivity_dbm = -97.0;
  /// Preamble-acquisition SNR threshold: below this instantaneous SNR the
  /// receiver never synchronises, so the frame is lost before bit errors
  /// even matter. This models the effective death of the link below ~5 dB
  /// that the paper's Fig. 6 shows (the calibrated BER curve alone is only
  /// valid inside the grey zone and above).
  double preamble_snr_db = 3.0;

  /// Throws std::invalid_argument with a field-naming message when the
  /// configuration is inconsistent (distance, mobility bounds). Called by
  /// the Channel constructor; exposed so option mappers can fail early.
  void Validate() const;
};

/// Outcome of one frame transmission attempt over the channel.
struct TransmissionOutcome {
  /// True if the frame was decoded by the receiver.
  bool received = false;
  /// Received signal strength at the receiver in dBm.
  double rssi_dbm = 0.0;
  /// Instantaneous noise floor during the frame, dBm.
  double noise_dbm = 0.0;
  /// Signal-to-noise ratio in dB (rssi - noise).
  double snr_db = 0.0;
  /// CC2420-style link quality indicator (roughly 50..110).
  int lqi = 0;
  /// True if the frame overlapped a concurrent transmission (whether or
  /// not capture saved it).
  bool collided = false;
};

/// A point-to-point radio channel between one sender and one receiver.
class Channel {
 public:
  /// `ber` must be non-null and outlive the channel (the channel borrows
  /// it). `rng` seeds the channel's private random streams (shadowing /
  /// noise / bit errors are derived sub-streams).
  Channel(ChannelConfig config, const BerModel* ber, util::Rng rng);

  /// Convenience constructor borrowing DefaultBerModel().
  Channel(ChannelConfig config, util::Rng rng);

  /// Simulates one frame of `frame_bytes` total PHY bytes sent at
  /// `tx_power_dbm`, at simulated time `now` (non-decreasing across calls).
  TransmissionOutcome Transmit(double tx_power_dbm, int frame_bytes,
                               sim::Time now);

  /// Mean RSSI for this placement (path loss + spatial offset, no temporal
  /// variation) — what a long-term average measurement would converge to.
  /// With mobility enabled this is the value at the configured start
  /// distance; use DistanceAt for the instantaneous geometry.
  [[nodiscard]] double MeanRssiDbm(double tx_power_dbm) const;

  /// Sender-receiver distance at simulated time t (constant without
  /// mobility).
  [[nodiscard]] double DistanceAt(sim::Time t) const;

  /// Mean SNR using the configured quiet noise mean; the "link quality"
  /// axis used throughout the paper's figures.
  [[nodiscard]] double MeanSnrDb(double tx_power_dbm) const;

  /// Samples the instantaneous noise floor (for noise-floor studies and for
  /// the MAC's CCA). Time must be non-decreasing across all channel calls.
  double SampleNoiseFloorDbm(sim::Time now);

  /// True if energy above the CCA threshold is present (interference burst,
  /// synthetic interferer, or — with a medium attached — a concurrent
  /// frame from another node).
  bool CcaBusy(sim::Time now);

  /// Joins a shared multi-transmitter medium as `node_id`. The medium must
  /// outlive the channel. All medium queries are RNG-free, so attaching
  /// never perturbs this channel's random streams.
  void AttachMedium(Medium* medium, int node_id) noexcept {
    medium_ = medium;
    node_id_ = node_id;
  }

  /// True when this channel senses real concurrent transmitters (a medium
  /// is attached). The MAC then drives its ladder one event per step
  /// instead of inline.
  [[nodiscard]] bool ContendedMedium() const noexcept {
    return medium_ != nullptr;
  }

  /// True when another node's frame is on the air at `now` (always false
  /// without a medium). RNG-free, unlike CcaBusy.
  bool MediumBusy(sim::Time now) {
    return medium_ != nullptr && medium_->BusyAt(now, node_id_);
  }

  /// Announces a frame this node radiates over [start, end) to the shared
  /// medium (no-op without one). The registered sink-side power is the mean
  /// RSSI at the start-of-frame geometry — deliberately RNG-free.
  void BeginTransmission(double tx_power_dbm, sim::Time start, sim::Time end);

  [[nodiscard]] const ChannelConfig& Config() const noexcept { return config_; }
  [[nodiscard]] const BerModel& Ber() const noexcept { return *ber_; }

 private:
  ChannelConfig config_;
  PathLoss path_loss_;
  const BerModel* ber_;  // borrowed; never null
  ShadowingProcess shadowing_;
  NoiseFloorProcess noise_;
  InterfererProcess interferer_;
  MobilityModel mobility_;
  util::Rng loss_rng_;  // per-frame delivery coin flips
  util::Rng lqi_rng_;   // LQI measurement noise
  Medium* medium_ = nullptr;  // shared air (multi-node runs only)
  int node_id_ = 0;

  /// Memoised path-loss RSSI (path loss + spatial offset) for the last
  /// (tx power, distance) pair. Transmit() recomputes the same log10 every
  /// frame on static links; caching on exact input equality returns the
  /// identical double, so results are bit-for-bit unchanged.
  double PathRssiDbm(double tx_power_dbm, double distance_m) const;
  mutable double rssi_cache_tx_dbm_ = 0.0;
  mutable double rssi_cache_dist_m_ = 0.0;
  mutable double rssi_cache_value_ = 0.0;
  mutable bool rssi_cache_valid_ = false;
};

/// Maps SNR to a CC2420-style LQI value with measurement noise.
[[nodiscard]] int SnrToLqi(double snr_db, util::Rng& rng);

}  // namespace wsnlink::channel
