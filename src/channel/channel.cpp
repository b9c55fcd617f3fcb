#include "channel/channel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace wsnlink::channel {

namespace {

ShadowingParams ResolveShadowing(const ChannelConfig& config) {
  ShadowingParams params = config.shadowing;
  if (config.use_default_temporal_sigma) {
    params.sigma_db = DefaultTemporalSigmaDb(config.distance_m);
  }
  return params;
}

}  // namespace

void ChannelConfig::Validate() const {
  if (distance_m <= 0.0) {
    throw std::invalid_argument("ChannelConfig: distance must be > 0");
  }
  if (mobility.speed_mps < 0.0) {
    throw std::invalid_argument(
        "ChannelConfig: mobility speed must be >= 0 m/s");
  }
  if (mobility.speed_mps > 0.0) {
    if (mobility.min_distance_m <= 0.0 ||
        mobility.min_distance_m >= mobility.max_distance_m) {
      throw std::invalid_argument(
          "ChannelConfig: mobility requires 0 < min distance < max distance "
          "(got min=" +
          std::to_string(mobility.min_distance_m) +
          " m, max=" + std::to_string(mobility.max_distance_m) + " m)");
    }
    if (distance_m < mobility.min_distance_m ||
        distance_m > mobility.max_distance_m) {
      throw std::invalid_argument(
          "ChannelConfig: start distance " + std::to_string(distance_m) +
          " m lies outside the mobility range [" +
          std::to_string(mobility.min_distance_m) + ", " +
          std::to_string(mobility.max_distance_m) + "] m");
    }
  }
}

int SnrToLqi(double snr_db, util::Rng& rng) {
  // CC2420 LQI is chip-correlation based; empirically it saturates around
  // 106-110 on strong links and bottoms out near 50.
  const double raw = 55.0 + 2.8 * snr_db + rng.Gaussian(0.0, 2.0);
  return static_cast<int>(std::clamp(raw, 40.0, 110.0));
}

Channel::Channel(ChannelConfig config, const BerModel* ber, util::Rng rng)
    : config_(config),
      path_loss_(config.path_loss),
      ber_(ber),
      shadowing_(ResolveShadowing(config), rng.Derive("shadowing")),
      noise_(config.noise, rng.Derive("noise-floor")),
      interferer_(config.interferer, rng.Derive("interferer")),
      mobility_(config.mobility, config.distance_m),
      loss_rng_(rng.Derive("frame-loss")),
      lqi_rng_(rng.Derive("lqi")) {
  if (ber_ == nullptr) {
    throw std::invalid_argument("Channel: BER model must be non-null");
  }
  config_.Validate();
}

Channel::Channel(ChannelConfig config, util::Rng rng)
    : Channel(config, &DefaultBerModel(), rng) {}

double Channel::PathRssiDbm(double tx_power_dbm, double distance_m) const {
  if (!rssi_cache_valid_ || tx_power_dbm != rssi_cache_tx_dbm_ ||
      distance_m != rssi_cache_dist_m_) {
    rssi_cache_tx_dbm_ = tx_power_dbm;
    rssi_cache_dist_m_ = distance_m;
    rssi_cache_value_ = path_loss_.MeanRssiDbm(tx_power_dbm, distance_m) +
                        config_.spatial_shadow_db;
    rssi_cache_valid_ = true;
  }
  return rssi_cache_value_;
}

double Channel::MeanRssiDbm(double tx_power_dbm) const {
  return path_loss_.MeanRssiDbm(tx_power_dbm, config_.distance_m) +
         config_.spatial_shadow_db;
}

double Channel::MeanSnrDb(double tx_power_dbm) const {
  return MeanRssiDbm(tx_power_dbm) - config_.noise.quiet_mean_dbm;
}

double Channel::DistanceAt(sim::Time t) const {
  return mobility_.Enabled() ? mobility_.DistanceAt(t) : config_.distance_m;
}

double Channel::SampleNoiseFloorDbm(sim::Time now) {
  return noise_.SampleDbm(now);
}

bool Channel::CcaBusy(sim::Time now) {
  // The medium check comes last: the first two legs advance their renewal
  // RNG streams with short-circuit semantics that pre-date multi-node, so
  // appending the RNG-free medium query keeps uncontended draw sequences
  // bit-identical.
  return noise_.InterferenceActive(now) || interferer_.ActiveAt(now) ||
         MediumBusy(now);
}

void Channel::BeginTransmission(double tx_power_dbm, sim::Time start,
                                sim::Time end) {
  if (medium_ == nullptr) return;
  medium_->Begin(node_id_, start, end,
                 PathRssiDbm(tx_power_dbm, DistanceAt(start)));
}

TransmissionOutcome Channel::Transmit(double tx_power_dbm, int frame_bytes,
                                      sim::Time now) {
  return Resolve(tx_power_dbm, frame_bytes, now, /*with_lqi=*/true);
}

bool Channel::Received(double tx_power_dbm, int frame_bytes, sim::Time now) {
  return Resolve(tx_power_dbm, frame_bytes, now, /*with_lqi=*/false).received;
}

void Channel::TransmitUnheard(double tx_power_dbm, int frame_bytes,
                              sim::Time now) {
  if (medium_ != nullptr || interferer_.Enabled()) {
    (void)Received(tx_power_dbm, frame_bytes, now);
    return;
  }
  // Resolve's draws in its order: shadowing (whose state later frames
  // read), the noise floor, the LQI, and the one loss draw every path
  // makes.
  (void)shadowing_.Sample(now);
  noise_.SkipSample(now);
  lqi_rng_.SkipGaussian();
  loss_rng_.NextDouble();
}

TransmissionOutcome Channel::Resolve(double tx_power_dbm, int frame_bytes,
                                     sim::Time now, bool with_lqi) {
  if (frame_bytes <= 0) {
    throw std::invalid_argument("Channel::Transmit: frame_bytes must be > 0");
  }
  TransmissionOutcome out;
  out.rssi_dbm = PathRssiDbm(tx_power_dbm, DistanceAt(now)) +
                 shadowing_.Sample(now);
  out.noise_dbm = noise_.SampleDbm(now);
  out.snr_db = out.rssi_dbm - out.noise_dbm;
  if (with_lqi) {
    out.lqi = SnrToLqi(out.snr_db, lqi_rng_);
  } else {
    lqi_rng_.SkipGaussian();
  }
  if (out.rssi_dbm < config_.sensitivity_dbm ||
      out.snr_db < config_.preamble_snr_db) {
    out.received = false;
    // Keep the per-frame draw count constant for stream stability.
    loss_rng_.NextDouble();
    return out;
  }
  // Collision with a concurrent transmitter: the frame occupied the air
  // over [now - airtime, now]; any interferer overlap jams it unless our
  // signal captures the receiver.
  const auto airtime = static_cast<sim::Duration>(frame_bytes) * 32;
  const sim::Time start = now > airtime ? now - airtime : 0;
  if (interferer_.ActiveDuring(start, now)) {
    out.collided = true;
    if (out.rssi_dbm - config_.interferer.rx_power_dbm <
        config_.interferer.capture_margin_db) {
      out.received = false;
      loss_rng_.NextDouble();  // keep draw count stable
      return out;
    }
  }
  // Collision with a real concurrent node (shared medium): same window, but
  // the jammer's power is the actual registered sink-side RSSI of the
  // strongest overlapping frame, not a configured constant.
  if (medium_ != nullptr) {
    if (const auto strongest =
            medium_->StrongestOverlapDbm(start, now, node_id_)) {
      out.collided = true;
      const bool captured =
          out.rssi_dbm - *strongest >= medium_->CaptureMarginDb();
      medium_->NoteCollision(captured);
      if (!captured) {
        out.received = false;
        loss_rng_.NextDouble();  // keep draw count stable
        return out;
      }
    }
  }
  const double p_success = ber_->FrameSuccessProbability(out.snr_db, frame_bytes);
  out.received = loss_rng_.NextDouble() < p_success;
  return out;
}

}  // namespace wsnlink::channel
