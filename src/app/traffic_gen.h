// Application-layer traffic generation.
//
// The paper's sender application emits fixed-size packets at a fixed
// inter-arrival time T_pkt (the two application-layer knobs). A bulk mode
// (back-to-back packets, modelled by a tiny interval) serves the max-goodput
// and case-study experiments. Optional jitter turns the deterministic
// arrival process into a Poisson-like one for robustness studies.
#pragma once

#include <cstdint>
#include <functional>

#include "link/link_layer.h"
#include "sim/simulator.h"
#include "trace/trace.h"
#include "util/rng.h"

namespace wsnlink::app {

/// Traffic parameters.
struct TrafficParams {
  /// Packet inter-arrival time (T_pkt). Must be > 0.
  sim::Duration pkt_interval = 100 * sim::kMillisecond;
  /// Payload size per packet (l_D), in [1, 114].
  int payload_bytes = 110;
  /// Total packets to generate. Must be >= 1.
  int packet_count = 4500;
  /// 0 = deterministic arrivals (the paper's setup). > 0 draws each gap
  /// from an exponential with mean pkt_interval (Poisson arrivals).
  bool poisson = false;
};

/// Periodic (or Poisson) packet source feeding a link layer.
class TrafficGenerator {
 public:
  /// Collaborators must outlive the generator.
  TrafficGenerator(sim::Simulator& simulator, link::LinkLayer& link,
                   TrafficParams params, util::Rng rng);

  /// Schedules the first arrival (at t = Now). Call once.
  void Start();

  /// Attaches observability sinks (kPacketGenerated events and the
  /// "app.packets_generated" counter). Call before Start().
  void AttachTrace(const trace::TraceContext& ctx);

  /// Packets generated so far (packet ids run 1, 2, 3, ...).
  [[nodiscard]] int Generated() const noexcept { return generated_; }

  /// True once all packets have been generated.
  [[nodiscard]] bool Done() const noexcept {
    return generated_ >= params_.packet_count;
  }

 private:
  void Emit();

  sim::Simulator& sim_;
  link::LinkLayer& link_;
  TrafficParams params_;
  util::Rng rng_;
  int generated_ = 0;

  // Observability (null = off).
  trace::Tracer* tracer_ = nullptr;
  trace::CounterRegistry* counters_ = nullptr;
  std::int32_t node_ = 0;
  trace::CounterRegistry::Id id_generated_ = 0;
};

}  // namespace wsnlink::app
