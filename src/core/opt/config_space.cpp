#include "core/opt/config_space.h"

#include <stdexcept>

namespace wsnlink::core::opt {

ConfigSpace ConfigSpace::PaperTableI() {
  ConfigSpace space;
  space.distances_m = {10, 15, 20, 25, 30, 35};
  space.pa_levels = {3, 7, 11, 15, 19, 23, 27, 31};
  space.max_tries = {1, 3, 5, 8};
  space.retry_delays_ms = {0, 30, 60};
  space.queue_capacities = {1, 30};
  space.pkt_intervals_ms = {10, 20, 30, 50, 100, 200};
  space.payload_bytes = {5, 20, 35, 50, 65, 95, 110};
  return space;
}

std::size_t ConfigSpace::Size() const {
  return distances_m.size() * SizePerDistance();
}

std::size_t ConfigSpace::SizePerDistance() const {
  return pa_levels.size() * max_tries.size() * retry_delays_ms.size() *
         queue_capacities.size() * pkt_intervals_ms.size() *
         payload_bytes.size();
}

void ConfigSpace::Validate() const {
  if (distances_m.empty() || pa_levels.empty() || max_tries.empty() ||
      retry_delays_ms.empty() || queue_capacities.empty() ||
      pkt_intervals_ms.empty() || payload_bytes.empty()) {
    throw std::invalid_argument("ConfigSpace: empty dimension");
  }
  // Validate each candidate value via a representative config, one
  // dimension at a time (full Cartesian validation would be redundant).
  StackConfig probe;
  for (const double d : distances_m) {
    probe = StackConfig{};
    probe.distance_m = d;
    probe.Validate();
  }
  for (const int p : pa_levels) {
    probe = StackConfig{};
    probe.pa_level = p;
    probe.Validate();
  }
  for (const int n : max_tries) {
    probe = StackConfig{};
    probe.max_tries = n;
    probe.Validate();
  }
  for (const double r : retry_delays_ms) {
    probe = StackConfig{};
    probe.retry_delay_ms = r;
    probe.Validate();
  }
  for (const int q : queue_capacities) {
    probe = StackConfig{};
    probe.queue_capacity = q;
    probe.Validate();
  }
  for (const double t : pkt_intervals_ms) {
    probe = StackConfig{};
    probe.pkt_interval_ms = t;
    probe.Validate();
  }
  for (const int l : payload_bytes) {
    probe = StackConfig{};
    probe.payload_bytes = l;
    probe.Validate();
  }
}

StackConfig ConfigSpace::At(std::size_t index) const {
  if (index >= Size()) throw std::out_of_range("ConfigSpace::At");
  StackConfig config;
  // Row-major: payload fastest, distance slowest.
  config.payload_bytes = payload_bytes[index % payload_bytes.size()];
  index /= payload_bytes.size();
  config.pkt_interval_ms = pkt_intervals_ms[index % pkt_intervals_ms.size()];
  index /= pkt_intervals_ms.size();
  config.queue_capacity = queue_capacities[index % queue_capacities.size()];
  index /= queue_capacities.size();
  config.retry_delay_ms = retry_delays_ms[index % retry_delays_ms.size()];
  index /= retry_delays_ms.size();
  config.max_tries = max_tries[index % max_tries.size()];
  index /= max_tries.size();
  config.pa_level = pa_levels[index % pa_levels.size()];
  index /= pa_levels.size();
  config.distance_m = distances_m[index];
  return config;
}

}  // namespace wsnlink::core::opt
