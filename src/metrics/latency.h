// Per-packet sojourn-time (latency) extraction for one simulation run.
//
// LinkMetrics reduces delays to a handful of scalars; the service-curve
// cross-validation harness (src/validate/) needs the full empirical
// distribution — every delivered packet's arrival -> first-delivery delay,
// plus the queue depth each accepted packet saw — so it can compare the
// measured CDF against an analytic bound curve. This module extracts that
// profile once from the packet log and offers sorted-sample queries
// (quantiles, CCDF).
#pragma once

#include <cstddef>
#include <vector>

#include "node/link_simulation.h"

namespace wsnlink::metrics {

/// The empirical delay distribution of one run.
struct LatencyProfile {
  /// Arrival -> first-delivery delay of every delivered packet, in
  /// milliseconds, ascending. One entry per unique delivered packet.
  std::vector<double> sorted_delays_ms;

  /// Queue depth observed by each accepted (not queue-dropped) packet at
  /// its arrival instant, in arrival order. Feeds the backlog-bound check.
  std::vector<int> queue_depths_at_arrival;

  [[nodiscard]] bool Empty() const noexcept { return sorted_delays_ms.empty(); }
  [[nodiscard]] std::size_t Count() const noexcept {
    return sorted_delays_ms.size();
  }

  /// p-quantile of the delay sample (linear interpolation). Requires a
  /// non-empty profile and p in [0, 1].
  [[nodiscard]] double QuantileMs(double p) const;

  /// Empirical tail P(delay > t_ms). Requires a non-empty profile.
  [[nodiscard]] double Ccdf(double t_ms) const;

  /// Smallest / largest observed delay. Require a non-empty profile.
  [[nodiscard]] double MinMs() const;
  [[nodiscard]] double MaxMs() const;

  /// Largest queue depth any accepted packet saw (0 when none accepted).
  [[nodiscard]] int MaxQueueDepth() const noexcept;
};

/// Extracts the latency profile from a finished run's packet log.
[[nodiscard]] LatencyProfile CollectLatencies(
    const node::SimulationResult& result);

}  // namespace wsnlink::metrics
