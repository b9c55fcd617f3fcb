// The discrete parameter space of the experiment (Table I).
//
// The paper sweeps 8064 combinations of six parameters per distance, six
// distances in our reconstruction (~48k configurations total). A ConfigSpace
// holds the candidate value sets, enumerates the Cartesian product in a
// fixed order, and supports random-access indexing so sweeps can be
// partitioned or subsampled deterministically.
#pragma once

#include <cstddef>
#include <vector>

#include "core/stack_config.h"

namespace wsnlink::core::opt {

/// A discrete multi-layer parameter space.
struct ConfigSpace {
  std::vector<double> distances_m;
  std::vector<int> pa_levels;
  std::vector<int> max_tries;
  std::vector<double> retry_delays_ms;
  std::vector<int> queue_capacities;
  std::vector<double> pkt_intervals_ms;
  std::vector<int> payload_bytes;

  /// The paper's Table I reconstruction: 6*8*4*3*2*6*7 = 48384 configs.
  [[nodiscard]] static ConfigSpace PaperTableI();

  /// Number of configurations in the Cartesian product.
  [[nodiscard]] std::size_t Size() const;

  /// The i-th configuration in row-major order (distance slowest, payload
  /// fastest — matching the paper's "all combinations per distance" runs).
  /// Requires index < Size().
  [[nodiscard]] StackConfig At(std::size_t index) const;

  /// Visits every configuration in At order, marking where the slower
  /// digits change so a search can reuse work across the faster ones:
  /// `on_placement(config)` runs whenever distance or PA level take a new
  /// value, `on_link(config)` whenever max tries or retry delay do (after
  /// on_placement when both change), and `on_config(config, payload_index)`
  /// for each configuration, where payload_index indexes payload_bytes.
  /// A hook may read only the fields it is named for and slower ones.
  template <typename OnPlacement, typename OnLink, typename OnConfig>
  void ForEach(OnPlacement&& on_placement, OnLink&& on_link,
               OnConfig&& on_config) const;

  /// Throws std::invalid_argument if any dimension is empty or any value
  /// violates StackConfig bounds.
  void Validate() const;

  /// Per-distance sub-space size (the paper's "8064 settings per distance").
  [[nodiscard]] std::size_t SizePerDistance() const;
};

template <typename OnPlacement, typename OnLink, typename OnConfig>
void ConfigSpace::ForEach(OnPlacement&& on_placement, OnLink&& on_link,
                          OnConfig&& on_config) const {
  // The nesting is At's row-major order: distance slowest, payload fastest.
  StackConfig config;
  const StackConfig& current = config;
  for (const double d : distances_m) {
    config.distance_m = d;
    for (const int pa : pa_levels) {
      config.pa_level = pa;
      on_placement(current);
      for (const int n : max_tries) {
        config.max_tries = n;
        for (const double r : retry_delays_ms) {
          config.retry_delay_ms = r;
          on_link(current);
          for (const int q : queue_capacities) {
            config.queue_capacity = q;
            for (const double t : pkt_intervals_ms) {
              config.pkt_interval_ms = t;
              for (std::size_t l = 0; l < payload_bytes.size(); ++l) {
                config.payload_bytes = payload_bytes[l];
                on_config(current, l);
              }
            }
          }
        }
      }
    }
  }
}

}  // namespace wsnlink::core::opt
