// Bit-error-rate curves.
//
// Two models are provided:
//
// * AnalyticOQpskBer — the textbook IEEE 802.15.4 2.4 GHz O-QPSK/DSSS symbol
//   error expression. It has a very sharp SNR cliff (a couple of dB wide),
//   which is what earlier studies ([11][13] in the paper) describe.
//
// * CalibratedExponentialBer — an empirically calibrated *frame* loss law,
//   linear in frame size:
//
//     P(frame lost) = min(1, 8 * A * bytes * exp(B * snr)),
//
//   with A = 0.0012, B = -0.15. Real 802.15.4 hardware exhibits PER that
//   scales close to linearly with frame length even when the loss is far
//   from small (burst errors and DSSS symbol correction break the
//   independent-bit-error composition), and the paper's Eq. (3) is exactly
//   such a linear-in-l_D law. The coefficients are calibrated at the
//   *attempt* level: one attempt radiates the payload plus 19 B stack
//   overhead and risks an 11 B ACK on the way back, so for mid-to-large
//   payloads the attempt failure probability approximates Eq. (3),
//   PER ~ 0.0128 * l_D * exp(-0.15 * snr). BitErrorRate() reports the
//   small-loss-equivalent per-bit rate A * exp(B * snr).
//
// The choice is a pluggable polymorphic strategy so the ablation bench can
// quantify what each curve does to the reproduced figures.
#pragma once

#include <memory>
#include <string>

namespace wsnlink::channel {

/// Strategy interface mapping per-packet SNR to bit error probability.
class BerModel {
 public:
  virtual ~BerModel() = default;

  /// Bit error probability in [0, 0.5] for the given SNR in dB.
  [[nodiscard]] virtual double BitErrorRate(double snr_db) const = 0;

  /// Human-readable name for bench output.
  [[nodiscard]] virtual std::string Name() const = 0;

  /// Probability that a frame of `frame_bytes` bytes (PHY payload incl.
  /// overhead) is received without errors. The default composes
  /// independent bit errors: (1 - BER)^(8 * bytes). Models with measured
  /// frame-level behaviour may override.
  [[nodiscard]] virtual double FrameSuccessProbability(double snr_db,
                                                       int frame_bytes) const;
};

/// IEEE 802.15.4 O-QPSK with DSSS (2.4 GHz PHY) analytic BER.
class AnalyticOQpskBer final : public BerModel {
 public:
  [[nodiscard]] double BitErrorRate(double snr_db) const override;
  [[nodiscard]] std::string Name() const override { return "analytic-oqpsk"; }
};

/// Calibrated linear-in-bytes frame loss matching the paper's Eq. (3).
class CalibratedExponentialBer final : public BerModel {
 public:
  /// Frame loss = min(1, 8*a*bytes*exp(b*snr)). Requires a > 0 and b < 0.
  explicit CalibratedExponentialBer(double a = 0.0012, double b = -0.15);

  [[nodiscard]] double BitErrorRate(double snr_db) const override;
  [[nodiscard]] double FrameSuccessProbability(double snr_db,
                                               int frame_bytes) const override;
  [[nodiscard]] std::string Name() const override { return "calibrated-exp"; }

  [[nodiscard]] double A() const noexcept { return a_; }
  [[nodiscard]] double B() const noexcept { return b_; }

 private:
  double a_;
  double b_;
};

/// Factory for the default (calibrated) curve.
[[nodiscard]] std::unique_ptr<BerModel> MakeDefaultBerModel();

}  // namespace wsnlink::channel
