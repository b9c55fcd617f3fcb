#include "core/fit/gauss_newton.h"

#include <cmath>
#include <stdexcept>

namespace wsnlink::core::fit {

void SolveLinearSystem(std::vector<std::vector<double>>& a,
                       std::vector<double>& b) {
  const std::size_t n = b.size();
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    for (std::size_t row = col + 1; row < n; ++row) {
      if (std::abs(a[row][col]) > std::abs(a[pivot][col])) pivot = row;
    }
    if (std::abs(a[pivot][col]) < 1e-300) {
      throw std::runtime_error("SolveLinearSystem: singular matrix");
    }
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);
    for (std::size_t row = col + 1; row < n; ++row) {
      const double factor = a[row][col] / a[col][col];
      for (std::size_t k = col; k < n; ++k) a[row][k] -= factor * a[col][k];
      b[row] -= factor * b[col];
    }
  }
  // Back substitution.
  for (std::size_t i = n; i-- > 0;) {
    double acc = b[i];
    for (std::size_t k = i + 1; k < n; ++k) acc -= a[i][k] * b[k];
    b[i] = acc / a[i][i];
  }
}

namespace {

constexpr int kMaxIterations = 100;
/// Stop when the relative SSE improvement falls below this.
constexpr double kTolerance = 1e-10;
/// Initial Levenberg damping factor.
constexpr double kInitialLambda = 1e-3;
/// Relative step for numeric (forward-difference) Jacobians.
constexpr double kJacobianStep = 1e-6;

double SumSquares(std::span<const double> v) noexcept {
  double acc = 0.0;
  for (const double x : v) acc += x * x;
  return acc;
}

}  // namespace

GaussNewtonResult Minimize(const ResidualFn& residuals,
                           std::vector<double> initial,
                           std::size_t residual_count) {
  if (initial.empty()) {
    throw std::invalid_argument("Minimize: at least one parameter required");
  }
  if (residual_count == 0) {
    throw std::invalid_argument("Minimize: at least one observation required");
  }
  const std::size_t np = initial.size();
  const std::size_t nr = residual_count;

  std::vector<double> r(nr);
  std::vector<double> r_perturbed(nr);
  std::vector<std::vector<double>> jacobian(nr, std::vector<double>(np));

  GaussNewtonResult result;
  result.params = std::move(initial);
  residuals(result.params, r);
  result.sse = SumSquares(r);

  double lambda = kInitialLambda;
  for (int iter = 0; iter < kMaxIterations; ++iter) {
    result.iterations = iter + 1;

    // Numeric forward-difference Jacobian.
    for (std::size_t j = 0; j < np; ++j) {
      std::vector<double> perturbed = result.params;
      const double step = kJacobianStep * (std::abs(perturbed[j]) + 1e-8);
      perturbed[j] += step;
      residuals(perturbed, r_perturbed);
      for (std::size_t i = 0; i < nr; ++i) {
        jacobian[i][j] = (r_perturbed[i] - r[i]) / step;
      }
    }

    // Normal equations (J^T J + lambda diag) dx = -J^T r.
    bool improved = false;
    for (int attempt = 0; attempt < 12 && !improved; ++attempt) {
      std::vector<std::vector<double>> jtj(np, std::vector<double>(np, 0.0));
      std::vector<double> neg_jtr(np, 0.0);
      for (std::size_t i = 0; i < nr; ++i) {
        for (std::size_t j = 0; j < np; ++j) {
          neg_jtr[j] -= jacobian[i][j] * r[i];
          for (std::size_t k = 0; k <= j; ++k) {
            jtj[j][k] += jacobian[i][j] * jacobian[i][k];
          }
        }
      }
      for (std::size_t j = 0; j < np; ++j) {
        for (std::size_t k = j + 1; k < np; ++k) jtj[j][k] = jtj[k][j];
        jtj[j][j] *= 1.0 + lambda;
        jtj[j][j] += 1e-12;  // keep strictly positive under zero columns
      }
      std::vector<double> step = neg_jtr;
      try {
        SolveLinearSystem(jtj, step);
      } catch (const std::runtime_error&) {
        lambda *= 10.0;
        continue;
      }

      std::vector<double> candidate = result.params;
      for (std::size_t j = 0; j < np; ++j) candidate[j] += step[j];
      residuals(candidate, r_perturbed);
      const double candidate_sse = SumSquares(r_perturbed);
      if (candidate_sse < result.sse) {
        const double relative_gain =
            (result.sse - candidate_sse) / (result.sse + 1e-300);
        result.params = std::move(candidate);
        std::swap(r, r_perturbed);
        result.sse = candidate_sse;
        lambda = std::max(lambda * 0.3, 1e-12);
        improved = true;
        if (relative_gain < kTolerance) {
          result.converged = true;
          return result;
        }
      } else {
        lambda *= 10.0;
      }
    }
    if (!improved) {
      // Damping exhausted without progress: local minimum reached.
      result.converged = true;
      return result;
    }
  }
  return result;
}

}  // namespace wsnlink::core::fit
