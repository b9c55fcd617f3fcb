// Log-normal shadowing path-loss model.
//
// The paper (Fig. 3) fits its hallway to the classic log-distance model with
// path-loss exponent n = 2.19 and spatial shadowing deviation sigma = 3.2 dB.
// We use those fitted values as the generative model: mean RSSI at distance d
// is  P_tx - [PL(d0) + 10 n log10(d/d0)]  and a static per-position offset
// drawn from N(0, sigma) models the spot-to-spot variation their scatter
// shows.
#pragma once

#include "util/rng.h"

namespace wsnlink::channel {

/// Parameters of the log-distance path-loss model.
struct PathLossParams {
  /// Path-loss exponent (paper's hallway fit: 2.19).
  double exponent = 2.19;
  /// Spatial shadowing standard deviation in dB (paper: 3.2).
  double sigma_db = 3.2;
  /// Reference loss at `reference_distance_m`, in dB. 38 dB at 1 m is a
  /// typical 2.4 GHz indoor value and calibrates the 35 m link so that the
  /// paper's grey-zone observations at low PA levels reproduce.
  double reference_loss_db = 38.0;
  /// Reference distance d0 in metres.
  double reference_distance_m = 1.0;
};

/// Deterministic part of the model plus helpers for the random spatial term.
class PathLoss {
 public:
  explicit PathLoss(PathLossParams params);

  /// Mean path loss in dB at distance d (metres). Requires d > 0.
  [[nodiscard]] double MeanLossDb(double distance_m) const;

  /// Mean received power for a transmit power, excluding spatial shadowing.
  [[nodiscard]] double MeanRssiDbm(double tx_power_dbm, double distance_m) const;

  /// Draws a static spatial shadowing offset X ~ N(0, sigma_db).
  [[nodiscard]] double SampleSpatialShadow(util::Rng& rng) const;

  [[nodiscard]] const PathLossParams& Params() const noexcept { return params_; }

 private:
  PathLossParams params_;
};

}  // namespace wsnlink::channel
