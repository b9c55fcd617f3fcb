#include "core/fit/exponential_fit.h"

#include <cmath>

#include "core/fit/gauss_newton.h"
#include "util/stats.h"

namespace wsnlink::core::fit {

std::optional<ScaledExpFitResult> FitScaledExponential(
    std::span<const ScaledExpSample> samples) {
  // Log-linearised initial estimate over positive samples.
  std::vector<double> xs;
  std::vector<double> zs;
  for (const auto& s : samples) {
    if (s.value > 0.0 && s.payload_bytes > 0.0) {
      xs.push_back(s.snr_db);
      zs.push_back(std::log(s.value / s.payload_bytes));
    }
  }
  if (xs.size() < 3) return std::nullopt;
  const auto line = util::FitLine(xs, zs);
  if (!line) return std::nullopt;

  ScaledExpFitResult result;
  result.log_r_squared = line->r_squared;
  result.samples_used = static_cast<int>(xs.size());

  // Refine on untransformed residuals so that large-y points are not
  // over-weighted by the log transform, and zero-y points contribute.
  std::vector<ScaledExpSample> all(samples.begin(), samples.end());
  const ResidualFn residuals = [&all](std::span<const double> p,
                                      std::span<double> out) {
    const double a = p[0];
    const double b = p[1];
    for (std::size_t i = 0; i < all.size(); ++i) {
      out[i] = a * all[i].payload_bytes * std::exp(b * all[i].snr_db) -
               all[i].value;
    }
  };
  const auto refined =
      Minimize(residuals, {std::exp(line->intercept), line->slope}, all.size());

  result.coefficients.a = refined.params[0];
  result.coefficients.b = refined.params[1];
  result.rmse = std::sqrt(refined.sse / static_cast<double>(all.size()));
  return result;
}

}  // namespace wsnlink::core::fit
