// Unit tests for the fitting machinery: linear system solver, Levenberg-
// Marquardt, and the scaled-exponential fitters.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/fit/exponential_fit.h"
#include "core/fit/gauss_newton.h"
#include "util/rng.h"

namespace wsnlink::core::fit {
namespace {

// ------------------------------------------------------ linear solver ----

TEST(SolveLinearSystem, TwoByTwo) {
  std::vector<std::vector<double>> a{{2.0, 1.0}, {1.0, 3.0}};
  std::vector<double> b{5.0, 10.0};
  SolveLinearSystem(a, b);
  EXPECT_NEAR(b[0], 1.0, 1e-12);
  EXPECT_NEAR(b[1], 3.0, 1e-12);
}

TEST(SolveLinearSystem, NeedsPivoting) {
  // Zero on the diagonal forces a row swap.
  std::vector<std::vector<double>> a{{0.0, 1.0}, {1.0, 0.0}};
  std::vector<double> b{2.0, 3.0};
  SolveLinearSystem(a, b);
  EXPECT_NEAR(b[0], 3.0, 1e-12);
  EXPECT_NEAR(b[1], 2.0, 1e-12);
}

TEST(SolveLinearSystem, SingularThrows) {
  std::vector<std::vector<double>> a{{1.0, 2.0}, {2.0, 4.0}};
  std::vector<double> b{1.0, 2.0};
  EXPECT_THROW(SolveLinearSystem(a, b), std::runtime_error);
}

TEST(SolveLinearSystem, ThreeByThree) {
  std::vector<std::vector<double>> a{
      {4.0, -2.0, 1.0}, {-2.0, 4.0, -2.0}, {1.0, -2.0, 4.0}};
  std::vector<double> b{11.0, -16.0, 17.0};
  SolveLinearSystem(a, b);
  // Verify by substitution.
  EXPECT_NEAR(4 * b[0] - 2 * b[1] + b[2], 11.0, 1e-9);
  EXPECT_NEAR(-2 * b[0] + 4 * b[1] - 2 * b[2], -16.0, 1e-9);
}

// ---------------------------------------------------- Gauss-Newton/LM ----

TEST(Minimize, QuadraticBowl) {
  // Residuals r_i = params - targets: minimum at targets.
  const ResidualFn residuals = [](std::span<const double> p,
                                  std::span<double> out) {
    out[0] = p[0] - 3.0;
    out[1] = p[1] + 2.0;
  };
  const auto result = Minimize(residuals, {0.0, 0.0}, 2);
  EXPECT_TRUE(result.converged);
  EXPECT_NEAR(result.params[0], 3.0, 1e-6);
  EXPECT_NEAR(result.params[1], -2.0, 1e-6);
  EXPECT_NEAR(result.sse, 0.0, 1e-10);
}

TEST(Minimize, NonlinearExponentialRecovery) {
  // y = 2.5 * exp(-0.3 x), noiseless.
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 30; ++i) {
    xs.push_back(i * 0.5);
    ys.push_back(2.5 * std::exp(-0.3 * xs.back()));
  }
  const ResidualFn residuals = [&](std::span<const double> p,
                                   std::span<double> out) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      out[i] = p[0] * std::exp(p[1] * xs[i]) - ys[i];
    }
  };
  const auto result = Minimize(residuals, {1.0, -0.1}, xs.size());
  EXPECT_NEAR(result.params[0], 2.5, 1e-4);
  EXPECT_NEAR(result.params[1], -0.3, 1e-4);
}

TEST(Minimize, InvalidInputsThrow) {
  const ResidualFn residuals = [](std::span<const double>, std::span<double>) {
  };
  EXPECT_THROW((void)Minimize(residuals, {}, 3), std::invalid_argument);
  EXPECT_THROW((void)Minimize(residuals, {1.0}, 0), std::invalid_argument);
}

// ------------------------------------------- scaled exponential fitter ----

std::vector<ScaledExpSample> SyntheticSamples(double a, double b,
                                              double noise_sigma,
                                              std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<ScaledExpSample> samples;
  for (const double l : {5.0, 20.0, 35.0, 50.0, 65.0, 95.0, 110.0}) {
    for (double snr = 5.0; snr <= 25.0; snr += 1.0) {
      ScaledExpSample s;
      s.payload_bytes = l;
      s.snr_db = snr;
      const double clean = a * l * std::exp(b * snr);
      s.value = std::max(0.0, clean * (1.0 + rng.Gaussian(0.0, noise_sigma)));
      samples.push_back(s);
    }
  }
  return samples;
}

TEST(FitScaledExponential, RecoversPaperPerCoefficientsNoiseless) {
  const auto samples = SyntheticSamples(0.0128, -0.15, 0.0, 1);
  const auto fit = FitScaledExponential(samples);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->coefficients.a, 0.0128, 1e-5);
  EXPECT_NEAR(fit->coefficients.b, -0.15, 1e-4);
  EXPECT_GT(fit->log_r_squared, 0.999);
  EXPECT_NEAR(fit->rmse, 0.0, 1e-8);
}

TEST(FitScaledExponential, RobustToTenPercentNoise) {
  const auto samples = SyntheticSamples(0.02, -0.18, 0.10, 2);
  const auto fit = FitScaledExponential(samples);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->coefficients.a, 0.02, 0.004);
  EXPECT_NEAR(fit->coefficients.b, -0.18, 0.02);
}

TEST(FitScaledExponential, HandlesZeroValueSamples) {
  auto samples = SyntheticSamples(0.011, -0.145, 0.0, 3);
  // Zero out the high-SNR tail (observed zero loss) — log domain must skip
  // them, nonlinear refinement must not blow up.
  for (auto& s : samples) {
    if (s.snr_db > 20.0) s.value = 0.0;
  }
  const auto fit = FitScaledExponential(samples);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->coefficients.a, 0.011, 0.002);
  EXPECT_NEAR(fit->coefficients.b, -0.145, 0.02);
}

TEST(FitScaledExponential, DegenerateInputsReturnNullopt) {
  std::vector<ScaledExpSample> too_few{{50.0, 10.0, 0.1},
                                       {50.0, 12.0, 0.08}};
  EXPECT_FALSE(FitScaledExponential(too_few).has_value());

  // All values zero: nothing in the log domain.
  std::vector<ScaledExpSample> zeros(10, ScaledExpSample{50.0, 10.0, 0.0});
  EXPECT_FALSE(FitScaledExponential(zeros).has_value());

  // Constant SNR: slope unidentifiable.
  std::vector<ScaledExpSample> flat(10, ScaledExpSample{50.0, 10.0, 0.1});
  EXPECT_FALSE(FitScaledExponential(flat).has_value());
}

}  // namespace
}  // namespace wsnlink::core::fit
