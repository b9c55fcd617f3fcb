// Fitters for the paper's scaled-exponential model family.
//
// All three empirical models (Eqs. 3, 7, 8) share the form
//
//   y = a * l_D * exp(b * SNR)
//
// Fitting proceeds the way the paper's analysis would: log-linearise
// (ln(y / l_D) = ln a + b * SNR, an ordinary least-squares line) for a
// robust initial estimate, then refine (a, b) with Levenberg-Marquardt on
// the untransformed residuals. Samples with y <= 0 (zero observed
// error/loss) carry no information in the log domain and are skipped there
// but still constrain the nonlinear refinement.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/models/constants.h"

namespace wsnlink::core::fit {

/// One observation for the scaled-exponential fit.
struct ScaledExpSample {
  double payload_bytes = 0.0;  ///< l_D
  double snr_db = 0.0;         ///< SNR
  double value = 0.0;          ///< observed y (PER / extra tries / loss)
};

/// Outcome of a scaled-exponential fit.
struct ScaledExpFitResult {
  models::ScaledExpCoefficients coefficients;
  /// RMSE of the refined fit in the value domain.
  double rmse = 0.0;
  /// R^2 of the log-linearised regression (quality of the exp-law shape).
  double log_r_squared = 0.0;
  int samples_used = 0;
};

/// Fits y = a * l_D * exp(b * SNR). Returns nullopt when fewer than 3
/// samples have y > 0 or when the SNR values are degenerate.
[[nodiscard]] std::optional<ScaledExpFitResult> FitScaledExponential(
    std::span<const ScaledExpSample> samples);

}  // namespace wsnlink::core::fit
