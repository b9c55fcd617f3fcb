// Cross-model consistency properties, swept over a (payload, SNR) grid.
//
// These are the algebraic relationships the model family must satisfy for
// ANY input — the analogue of the simulator's property suite, but for the
// paper's equations themselves.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "core/models/model_set.h"
#include "node/link_simulation.h"
#include "phy/frame.h"
#include "validate/service_curve.h"

namespace wsnlink::core::models {
namespace {

struct GridPoint {
  GridPoint(int payload_bytes, double snr) : payload(payload_bytes), snr_db(snr) {}
  int payload;
  // gtest prints a parameter that has no operator<< as a byte dump, and
  // ctest bakes that dump into every test name. Filling the four bytes the
  // compiler would otherwise pad here keeps uninitialised memory out of the
  // names, so they are the same in every process.
  int zero_pad = 0;
  double snr_db;
};

class ModelGrid : public ::testing::TestWithParam<GridPoint> {};

TEST_P(ModelGrid, ServiceTimeOrdering) {
  const ServiceTimeModel model;
  for (const int tries : {1, 3, 8}) {
    ServiceTimeInputs in;
    in.payload_bytes = GetParam().payload;
    in.snr_db = GetParam().snr_db;
    in.max_tries = tries;
    const double delivered = model.DeliveredMs(in);
    const double lost = model.LostMs(in);
    const double mean = model.MeanMs(in);
    // A delivery can never take longer (in expectation) than exhausting
    // the whole retry budget, and the mixture sits between the branches.
    EXPECT_LE(delivered, lost + 1e-9);
    EXPECT_GE(mean, delivered - 1e-9);
    EXPECT_LE(mean, lost + 1e-9);
    EXPECT_GT(delivered, 0.0);
  }
}

TEST_P(ModelGrid, ServiceTimeMonotoneInRetryDelay) {
  const ServiceTimeModel model;
  ServiceTimeInputs in;
  in.payload_bytes = GetParam().payload;
  in.snr_db = GetParam().snr_db;
  in.max_tries = 3;
  double prev = -1.0;
  for (const double retry : {0.0, 30.0, 60.0, 120.0}) {
    in.retry_delay_ms = retry;
    const double mean = model.MeanMs(in);
    EXPECT_GE(mean, prev);
    prev = mean;
  }
}

TEST_P(ModelGrid, PerAndPlrBaseAgreeInShape) {
  // Eq. 3 and Eq. 8's base are independent fits of nearly the same thing;
  // they must agree within a factor ~2 everywhere both are meaningful.
  const PerModel per;
  const PlrModel plr;
  const double a = per.Per(GetParam().payload, GetParam().snr_db);
  const double b = plr.AttemptLoss(GetParam().payload, GetParam().snr_db);
  if (a > 1e-4 && a < 1.0 && b < 1.0) {
    EXPECT_LT(std::abs(std::log(a / b)), std::log(2.2))
        << "per=" << a << " base=" << b;
  }
}

TEST_P(ModelGrid, GoodputMonotoneInSnr) {
  const GoodputModel model;
  ServiceTimeInputs in;
  in.payload_bytes = GetParam().payload;
  in.max_tries = 3;
  in.snr_db = GetParam().snr_db;
  const double here = model.MaxGoodputKbps(in);
  in.snr_db = GetParam().snr_db + 3.0;
  const double better_link = model.MaxGoodputKbps(in);
  EXPECT_GE(better_link, here - 1e-9);
}

TEST_P(ModelGrid, RetriesMonotoneLossBoundedGoodputEffect) {
  // Radio loss is strictly monotone in the retry budget (Eq. 8). Goodput
  // is NOT (a fast failed slot can beat a slow recovery in Eq. 4 — the
  // grey-zone trade-off the paper discusses), but its swing across budgets
  // stays bounded.
  const GoodputModel goodput;
  const PlrModel plr;
  ServiceTimeInputs in;
  in.payload_bytes = GetParam().payload;
  in.snr_db = GetParam().snr_db;

  double prev_loss = 2.0;
  double min_goodput = 1e18;
  double max_goodput = 0.0;
  for (const int tries : {1, 2, 3, 5, 8}) {
    in.max_tries = tries;
    const double g = goodput.MaxGoodputKbps(in);
    const double l = plr.RadioLoss(GetParam().payload, GetParam().snr_db, tries);
    EXPECT_LE(l, prev_loss + 1e-12);
    prev_loss = l;
    min_goodput = std::min(min_goodput, g);
    max_goodput = std::max(max_goodput, g);
  }
  EXPECT_GT(min_goodput, 0.0);
  EXPECT_LT(max_goodput, 2.0 * min_goodput + 1e-9);
}

TEST_P(ModelGrid, EnergyDecreasesWithSnrAtFixedPower) {
  const EnergyModel model;
  const double here =
      model.MicrojoulesPerBit(GetParam().payload, GetParam().snr_db, 31);
  const double better =
      model.MicrojoulesPerBit(GetParam().payload, GetParam().snr_db + 3.0, 31);
  if (std::isfinite(here)) {
    EXPECT_LE(better, here + 1e-12);
  }
}

TEST_P(ModelGrid, UtilizationScalesInverselyWithInterval) {
  const DelayModel model;
  ServiceTimeInputs in;
  in.payload_bytes = GetParam().payload;
  in.snr_db = GetParam().snr_db;
  in.max_tries = 3;
  const double rho_50 = model.Utilization(in, 50.0);
  const double rho_100 = model.Utilization(in, 100.0);
  EXPECT_NEAR(rho_50, 2.0 * rho_100, 1e-9);
}

TEST_P(ModelGrid, PredictionInternallyConsistent) {
  ModelSet models;
  StackConfig config;
  config.payload_bytes = GetParam().payload;
  config.max_tries = 3;
  config.queue_capacity = 10;
  config.pkt_interval_ms = 80.0;
  const auto p = models.PredictAtSnr(config, GetParam().snr_db);
  // Total loss composes queue and radio loss.
  EXPECT_NEAR(p.plr_total,
              1.0 - (1.0 - p.plr_queue) * (1.0 - p.plr_radio), 1e-12);
  // Delay includes at least the service time.
  EXPECT_GE(p.total_delay_ms, p.service_time_ms - 1e-9);
  // Stability predicate consistent with rho.
  EXPECT_EQ(p.plr_queue > 0.0, p.utilization > 1.0);
}

INSTANTIATE_TEST_SUITE_P(
    PayloadSnrGrid, ModelGrid,
    ::testing::Values(GridPoint{5, 6.0}, GridPoint{5, 15.0},
                      GridPoint{5, 25.0}, GridPoint{50, 6.0},
                      GridPoint{50, 12.0}, GridPoint{50, 20.0},
                      GridPoint{110, 7.0}, GridPoint{110, 14.0},
                      GridPoint{110, 22.0}, GridPoint{114, 9.0},
                      GridPoint{114, 19.0}, GridPoint{114, 30.0}),
    [](const ::testing::TestParamInfo<GridPoint>& info) {
      return "l" + std::to_string(info.param.payload) + "_s" +
             std::to_string(static_cast<int>(info.param.snr_db));
    });

// --- service-curve bound algebra (src/validate/) ------------------------
//
// The delay/backlog bounds must respect the same kind of ordering laws as
// the closed-form models above, for any configuration in scope: a larger
// retry budget or payload can only push the worst case out, and the
// analytic delay-CCDF envelope must be a valid step-function tail.

wsnlink::node::SimulationOptions CurveOptions(double distance_m, int pa,
                                              int payload, int tries) {
  wsnlink::node::SimulationOptions options;
  options.config.distance_m = distance_m;
  options.config.pa_level = pa;
  options.config.payload_bytes = payload;
  options.config.max_tries = tries;
  return options;
}

TEST(ServiceCurveProperty, MaxDelayMonotoneInRetryLimit) {
  for (const double d : {10.0, 25.0, 31.0}) {
    for (const int payload : {20, 110}) {
      double prev_delay = 0.0;
      double prev_service = 0.0;
      for (int tries = 1; tries <= 8; ++tries) {
        const wsnlink::validate::ServiceCurveModel model(
            CurveOptions(d, 7, payload, tries));
        const auto& b = model.Bounds();
        EXPECT_GE(b.max_delay_ms, prev_delay)
            << "d=" << d << " l=" << payload << " tries=" << tries;
        EXPECT_GE(b.max_service_ms, prev_service);
        // More tries never increases the residual loss after the ladder.
        prev_delay = b.max_delay_ms;
        prev_service = b.max_service_ms;
      }
    }
  }
}

TEST(ServiceCurveProperty, RadioLossNonIncreasingInRetryLimit) {
  for (const double d : {25.0, 31.0}) {
    double prev = 2.0;
    for (int tries = 1; tries <= 8; ++tries) {
      const wsnlink::validate::ServiceCurveModel model(
          CurveOptions(d, 7, 110, tries));
      EXPECT_LE(model.RadioLossBound(), prev + 1e-12)
          << "d=" << d << " tries=" << tries;
      prev = model.RadioLossBound();
    }
  }
}

TEST(ServiceCurveProperty, BoundsMonotoneInPayloadSize) {
  for (const double d : {10.0, 25.0, 31.0}) {
    for (const int tries : {1, 3}) {
      double prev_min = 0.0;
      double prev_max = 0.0;
      double prev_loss = 0.0;
      for (const int payload : {5, 20, 50, 80, 110, 114}) {
        const wsnlink::validate::ServiceCurveModel model(
            CurveOptions(d, 7, payload, tries));
        const auto& b = model.Bounds();
        EXPECT_GE(b.min_delay_ms, prev_min)
            << "d=" << d << " tries=" << tries << " l=" << payload;
        EXPECT_GE(b.max_delay_ms, prev_max);
        // A longer frame can only be easier to lose (Eq. 3 is linear in
        // the radiated bytes).
        EXPECT_GE(model.EffectiveAttemptLoss(), prev_loss - 1e-12);
        prev_min = b.min_delay_ms;
        prev_max = b.max_delay_ms;
        prev_loss = model.EffectiveAttemptLoss();
      }
    }
  }
}

TEST(ServiceCurveProperty, CcdfEnvelopeIsAValidTail) {
  for (const double d : {10.0, 28.0}) {
    for (const int tries : {1, 3, 8}) {
      const wsnlink::validate::ServiceCurveModel model(
          CurveOptions(d, 7, 110, tries));
      const auto& ccdf = model.Bounds().ccdf;
      ASSERT_EQ(ccdf.size(), static_cast<std::size_t>(tries));
      for (std::size_t i = 0; i < ccdf.size(); ++i) {
        EXPECT_GE(ccdf[i].tail_probability, 0.0);
        EXPECT_LE(ccdf[i].tail_probability, 1.0);
        if (i > 0) {
          EXPECT_GT(ccdf[i].delay_ms, ccdf[i - 1].delay_ms);
          EXPECT_LE(ccdf[i].tail_probability,
                    ccdf[i - 1].tail_probability + 1e-12);
        }
      }
      // The last step is the hard maximum: nothing delivered later.
      EXPECT_DOUBLE_EQ(ccdf.back().tail_probability, 0.0);
      EXPECT_DOUBLE_EQ(ccdf.back().delay_ms, model.Bounds().max_delay_ms);
    }
  }
}

TEST(ServiceCurveProperty, AttemptTailNonIncreasingInK) {
  const wsnlink::validate::ServiceCurveModel model(
      CurveOptions(28.0, 7, 110, 8));
  for (const double factor : {1.0, 2.0}) {
    double prev = 2.0;
    for (int k = 1; k <= 8; ++k) {
      const double tail = model.AttemptTailProbability(k, factor);
      EXPECT_GE(tail, 0.0);
      EXPECT_LE(tail, 1.0);
      EXPECT_LE(tail, prev + 1e-12) << "k=" << k << " factor=" << factor;
      prev = tail;
    }
  }
}

TEST(ServiceCurveProperty, HalvedPerNeverRaisesTheEnvelope) {
  for (const double d : {10.0, 25.0, 31.0}) {
    const auto options = CurveOptions(d, 7, 110, 3);
    const wsnlink::validate::ServiceCurveModel calibrated(options);
    wsnlink::validate::ServiceCurveParams halved;
    halved.per_scale = 0.5;
    const wsnlink::validate::ServiceCurveModel optimistic(options, 1, halved);
    for (int k = 1; k <= 3; ++k) {
      EXPECT_LE(optimistic.AttemptTailProbability(k, 1.0),
                calibrated.AttemptTailProbability(k, 1.0) + 1e-12);
    }
  }
}

TEST(ServiceCurveProperty, StabilityFlagMatchesUtilization) {
  for (const double interval : {10.0, 50.0, 100.0, 1000.0}) {
    auto options = CurveOptions(25.0, 7, 110, 3);
    options.config.pkt_interval_ms = interval;
    options.config.queue_capacity = 4;
    const wsnlink::validate::ServiceCurveModel model(options);
    const auto& b = model.Bounds();
    EXPECT_EQ(b.stable, b.worst_case_utilization < 1.0);
    EXPECT_GE(b.backlog_bound_pkts, 0);
    EXPECT_LE(b.backlog_bound_pkts, options.config.queue_capacity - 1 > 0
                                        ? options.config.queue_capacity - 1
                                        : 1);
    EXPECT_GE(b.max_delay_ms, b.min_delay_ms);
    EXPECT_GT(b.arrival.rate_pps, 0.0);
    EXPECT_GT(b.service.rate_pps, 0.0);
  }
}

}  // namespace
}  // namespace wsnlink::core::models
