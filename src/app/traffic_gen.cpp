#include "app/traffic_gen.h"

#include <stdexcept>

#include "phy/frame.h"

namespace wsnlink::app {

TrafficGenerator::TrafficGenerator(sim::Simulator& simulator,
                                   link::LinkLayer& link, TrafficParams params,
                                   util::Rng rng)
    : sim_(simulator), link_(link), params_(params), rng_(rng) {
  if (params_.pkt_interval <= 0) {
    throw std::invalid_argument("TrafficGenerator: interval must be > 0");
  }
  if (params_.packet_count < 1) {
    throw std::invalid_argument("TrafficGenerator: packet count must be >= 1");
  }
  phy::ValidatePayloadSize(params_.payload_bytes);
}

void TrafficGenerator::AttachTrace(const trace::TraceContext& ctx) {
  tracer_ = ctx.tracer;
  counters_ = ctx.counters;
  node_ = ctx.node;
  if (counters_ != nullptr) {
    id_generated_ = counters_->Register("app.packets_generated");
  }
}

void TrafficGenerator::Start() {
  sim_.Schedule(0, [this] { Emit(); });
}

void TrafficGenerator::Emit() {
  const auto packet_id = static_cast<std::uint64_t>(generated_) + 1;
  if (counters_ != nullptr) counters_->Add(id_generated_);
  if (tracer_ != nullptr) {
    tracer_->Emit({sim_.Now(), trace::EventType::kPacketGenerated,
                   trace::Layer::kApp, packet_id, params_.payload_bytes, 0,
                   0.0, node_});
  }
  link_.Accept(packet_id, params_.payload_bytes);
  ++generated_;
  if (Done()) return;

  sim::Duration gap = params_.pkt_interval;
  if (params_.poisson) {
    gap = sim::FromSeconds(
        rng_.Exponential(sim::ToSeconds(params_.pkt_interval)));
    if (gap < 1) gap = 1;
  }
  sim_.Schedule(gap, [this] { Emit(); });
}

}  // namespace wsnlink::app
