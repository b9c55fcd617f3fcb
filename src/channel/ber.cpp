#include "channel/ber.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/units.h"

namespace wsnlink::channel {

double BerModel::FrameSuccessProbability(double snr_db, int frame_bytes) const {
  if (frame_bytes <= 0) {
    throw std::invalid_argument("FrameSuccessProbability: frame_bytes must be > 0");
  }
  const double ber = BitErrorRate(snr_db);
  return std::pow(1.0 - ber, 8.0 * static_cast<double>(frame_bytes));
}

double AnalyticOQpskBer::BitErrorRate(double snr_db) const {
  // 802.15.4 2.4 GHz PHY: 4 information bits per 32-chip symbol, 16-ary
  // quasi-orthogonal signalling. Standard approximation (e.g. Zuniga &
  // Krishnamachari): BER = 8/15 * 1/16 * sum_{k=2}^{16} (-1)^k C(16,k)
  //                        * exp(20 * SINR_lin * (1/k - 1)).
  const double sinr = util::DbToLinear(snr_db);
  static constexpr double kBinom16[17] = {
      1, 16, 120, 560, 1820, 4368, 8008, 11440, 12870,
      11440, 8008, 4368, 1820, 560, 120, 16, 1};
  double acc = 0.0;
  for (int k = 2; k <= 16; ++k) {
    const double sign = (k % 2 == 0) ? 1.0 : -1.0;
    acc += sign * kBinom16[k] * std::exp(20.0 * sinr * (1.0 / k - 1.0));
  }
  const double ber = (8.0 / 15.0) * (1.0 / 16.0) * acc;
  return std::clamp(ber, 0.0, 0.5);
}

CalibratedExponentialBer::CalibratedExponentialBer(double a, double b)
    : a_(a), b_(b) {
  if (a <= 0.0) throw std::invalid_argument("CalibratedExponentialBer: a must be > 0");
  if (b >= 0.0) throw std::invalid_argument("CalibratedExponentialBer: b must be < 0");
}

double CalibratedExponentialBer::BitErrorRate(double snr_db) const {
  return std::min(0.5, a_ * std::exp(b_ * snr_db));
}

double CalibratedExponentialBer::FrameSuccessProbability(
    double snr_db, int frame_bytes) const {
  if (frame_bytes <= 0) {
    throw std::invalid_argument("FrameSuccessProbability: frame_bytes must be > 0");
  }
  // Linear-in-bytes frame loss: the empirical scaling of Eq. (3). For
  // small losses this equals the bit-composition of BitErrorRate().
  const double loss = 8.0 * a_ * static_cast<double>(frame_bytes) *
                      std::exp(b_ * snr_db);
  return std::clamp(1.0 - loss, 0.0, 1.0);
}

std::unique_ptr<BerModel> MakeDefaultBerModel() {
  return std::make_unique<CalibratedExponentialBer>();
}

}  // namespace wsnlink::channel
