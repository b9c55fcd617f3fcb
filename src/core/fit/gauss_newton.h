// Small dense nonlinear least-squares solver (Levenberg-Marquardt).
//
// The paper's models have two fitted parameters each, so a tiny dense
// implementation with numeric Jacobians is all that is needed: normal
// equations solved by Gaussian elimination with adaptive damping. Used by
// core/fit/exponential_fit.* to refine the log-linearised initial guess on
// the untransformed residuals (so large-PER points are not over-weighted by
// the log transform).
#pragma once

#include <functional>
#include <span>
#include <vector>

namespace wsnlink::core::fit {

/// Result of a solve.
struct GaussNewtonResult {
  std::vector<double> params;
  double sse = 0.0;       ///< final sum of squared residuals
  int iterations = 0;
  bool converged = false;
};

/// Residual function: given the parameter vector, fills `out` with one
/// residual per observation (out.size() is fixed across calls).
using ResidualFn =
    std::function<void(std::span<const double> params, std::span<double> out)>;

/// Minimises sum of squares of `residuals` starting from `initial`.
///
/// `residual_count` is the (fixed) number of observations. Throws
/// std::invalid_argument on empty parameters/observations.
[[nodiscard]] GaussNewtonResult Minimize(const ResidualFn& residuals,
                                         std::vector<double> initial,
                                         std::size_t residual_count);

/// Solves the square linear system A x = b in place (partial pivoting).
/// Throws std::runtime_error if A is singular. Exposed for tests.
void SolveLinearSystem(std::vector<std::vector<double>>& a,
                       std::vector<double>& b);

}  // namespace wsnlink::core::fit
