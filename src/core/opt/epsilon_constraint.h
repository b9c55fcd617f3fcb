// Epsilon-constraint multi-objective optimizer (Sec. VIII-B).
//
// The paper formulates joint parameter tuning as
//
//   min (M_1(c), ..., M_k(c))  over the discrete config space
//
// and points at the epsilon-constraint method: optimise one primary metric
// subject to upper bounds ("epsilons") on the others. Over a discrete space
// the method is an exhaustive filtered search, which is exactly what we do —
// the full Table I space is < 50k points.
//
// The search visits configurations in ConfigSpace::At order, and a config
// replaces the best only at a strictly lower cost, so among equal costs the
// first in that order wins. Each prediction is the bit-exact
// ModelSet::Predict (or PredictAtSnr) of its config, but the search builds
// it from parts: the SNR once per (distance, PA level), the link terms
// (every exp, pow and log10) once per (distance, PA level, max tries, retry
// delay, payload), and only the traffic terms per config. The serving
// space's 1,560 configs share 520 link terms.
#pragma once

#include <optional>
#include <vector>

#include "core/models/model_set.h"
#include "core/opt/config_space.h"
#include "core/opt/objectives.h"
#include "core/opt/pareto.h"

namespace wsnlink::core::opt {

/// One epsilon constraint: MetricCost(metric) <= max_cost (note: goodput
/// costs are negated, so goodput constraints are *lower* bounds on goodput
/// — use the helpers below to avoid sign mistakes).
struct Constraint {
  Metric metric;
  double max_cost;
};

/// Upper bound on a lower-is-better metric (energy, delay, loss).
[[nodiscard]] Constraint AtMost(Metric metric, double bound);

/// Lower bound on goodput.
[[nodiscard]] Constraint GoodputAtLeast(double kbps);

/// Optimization problem: minimise `objective` subject to `constraints`.
struct Problem {
  Metric objective = Metric::kEnergy;
  std::vector<Constraint> constraints;
  /// Configurations are evaluated at the SNR derived from placement unless
  /// `fixed_snr_db` is set (e.g. a measured link quality).
  std::optional<double> fixed_snr_db;
};

/// Solution: the winning configuration and its predicted metrics.
struct Solution {
  StackConfig config;
  models::MetricPrediction prediction;
  /// Number of configurations satisfying every constraint.
  std::size_t feasible_count = 0;
};

/// Exhaustive epsilon-constraint search over a discrete space.
///
/// Returns nullopt when no configuration satisfies all constraints.
[[nodiscard]] std::optional<Solution> SolveEpsilonConstraint(
    const models::ModelSet& models, const ConfigSpace& space,
    const Problem& problem);

/// Convenience: evaluate every configuration in the space, for Pareto-front
/// construction or custom filtering.
[[nodiscard]] std::vector<ParetoPoint> EvaluateSpace(
    const models::ModelSet& models, const ConfigSpace& space,
    std::optional<double> fixed_snr_db = std::nullopt);

}  // namespace wsnlink::core::opt
