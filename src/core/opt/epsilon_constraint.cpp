#include "core/opt/epsilon_constraint.h"

namespace wsnlink::core::opt {

Constraint AtMost(Metric metric, double bound) {
  // For lower-is-better metrics, cost == value.
  return Constraint{metric, bound};
}

Constraint GoodputAtLeast(double kbps) {
  // Goodput cost is -goodput; goodput >= k  <=>  cost <= -k.
  return Constraint{Metric::kGoodput, -kbps};
}

namespace {

/// The search loop of both entry points: calls `visit(config, prediction)`
/// for every configuration of `space` in At order, with the bits of
/// models.Predict(config) (PredictAtSnr at `fixed_snr_db` when set), built
/// from link terms computed once per link (see the header).
template <typename Visit>
void ForEachPrediction(const models::ModelSet& models, const ConfigSpace& space,
                       std::optional<double> fixed_snr_db, Visit&& visit) {
  space.Validate();
  double snr_db = 0.0;
  std::vector<models::LinkTerms> links(space.payload_bytes.size());
  space.ForEach(
      [&](const StackConfig& placement) {
        snr_db = fixed_snr_db ? *fixed_snr_db
                              : models.LinkQuality().SnrDb(
                                    placement.pa_level, placement.distance_m);
      },
      [&](StackConfig link) {
        for (std::size_t l = 0; l < links.size(); ++l) {
          link.payload_bytes = space.payload_bytes[l];
          links[l] = models.LinkTermsAtSnr(link, snr_db);
        }
      },
      [&](const StackConfig& config, std::size_t payload) {
        visit(config, models::WithTraffic(links[payload],
                                          config.pkt_interval_ms,
                                          config.queue_capacity));
      });
}

}  // namespace

std::optional<Solution> SolveEpsilonConstraint(const models::ModelSet& models,
                                               const ConfigSpace& space,
                                               const Problem& problem) {
  std::optional<Solution> best;
  double best_cost = 0.0;
  std::size_t feasible = 0;
  ForEachPrediction(
      models, space, problem.fixed_snr_db,
      [&](const StackConfig& config,
          const models::MetricPrediction& prediction) {
        for (const auto& constraint : problem.constraints) {
          if (MetricCost(prediction, constraint.metric) > constraint.max_cost) {
            return;
          }
        }
        ++feasible;
        // Strict: among equal costs the first configuration in At order
        // wins.
        const double cost = MetricCost(prediction, problem.objective);
        if (!best || cost < best_cost) {
          best = Solution{config, prediction, 0};
          best_cost = cost;
        }
      });
  if (best) best->feasible_count = feasible;
  return best;
}

std::vector<ParetoPoint> EvaluateSpace(const models::ModelSet& models,
                                       const ConfigSpace& space,
                                       std::optional<double> fixed_snr_db) {
  std::vector<ParetoPoint> points;
  points.reserve(space.Size());
  ForEachPrediction(models, space, fixed_snr_db,
                    [&](const StackConfig& config,
                        const models::MetricPrediction& prediction) {
                      points.push_back(ParetoPoint{config, prediction});
                    });
  return points;
}

}  // namespace wsnlink::core::opt
