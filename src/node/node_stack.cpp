#include "node/node_stack.h"

#include <utility>

#include "phy/cc2420.h"

namespace wsnlink::node {

namespace {

const channel::BerModel* SelectBer(bool analytic) {
  static const channel::AnalyticOQpskBer kAnalytic;
  return analytic ? &kAnalytic : &channel::DefaultBerModel();
}

app::TrafficParams MakeTrafficParams(const SimulationOptions& options) {
  app::TrafficParams traffic;
  traffic.pkt_interval = sim::FromMilliseconds(options.config.pkt_interval_ms);
  traffic.payload_bytes = options.config.payload_bytes;
  traffic.packet_count = options.packet_count;
  traffic.poisson = options.poisson_arrivals;
  return traffic;
}

}  // namespace

NodeStack::NodeStack(sim::Simulator& simulator,
                     const SimulationOptions& options, util::Rng root,
                     channel::Medium* medium, int node_id,
                     NodeScratch& scratch)
    : node_id_(node_id),
      pa_level_(options.config.pa_level),
      registry_(scratch.registry),
      channel_(MakeChannelConfig(options), SelectBer(options.analytic_ber),
               root.Derive("channel")),
      mac_(BuildMac(simulator, options, root)),
      link_(simulator, mac_, options.config.queue_capacity),
      sink_(scratch.reception_buf),
      generator_(simulator, link_, MakeTrafficParams(options),
                 root.Derive("traffic")) {
  if (medium != nullptr) channel_.AttachMedium(medium, node_id_);
  link_.MutableLog().AdoptStorage(std::move(scratch.packet_buf),
                                  std::move(scratch.attempt_buf));
  // The run's log sizes are known up front: one record per generated packet
  // and at most max_tries attempts each. Reserving avoids mid-run regrowth.
  const auto packets = static_cast<std::size_t>(options.packet_count);
  link_.MutableLog().Reserve(
      packets, packets * static_cast<std::size_t>(options.config.max_tries));
  sink_.Reserve(packets);
  link_.SetDeliveryCallback(
      [this](const mac::DeliveryInfo& info, bool first_copy) {
        sink_.OnDelivery(info, first_copy);
      });
}

mac::Mac& NodeStack::BuildMac(sim::Simulator& simulator,
                              const SimulationOptions& options,
                              const util::Rng& root) {
  if (options.mac == MacKind::kLpl) {
    mac::LplParams params;
    params.wakeup_interval =
        sim::FromMilliseconds(options.lpl_wakeup_interval_ms);
    params.max_tries = options.config.max_tries;
    params.retry_delay = sim::FromMilliseconds(options.config.retry_delay_ms);
    params.pa_level = options.config.pa_level;
    return lpl_.emplace(simulator, channel_, params, root.Derive("mac"));
  }
  mac::MacParams params;
  params.max_tries = options.config.max_tries;
  params.retry_delay = sim::FromMilliseconds(options.config.retry_delay_ms);
  params.pa_level = options.config.pa_level;
  return csma_.emplace(simulator, channel_, params, root.Derive("mac"));
}

void NodeStack::AttachTrace(trace::Tracer* tracer, bool collect_counters) {
  collect_counters_ = collect_counters;
  trace::TraceContext ctx;
  ctx.tracer = tracer;
  ctx.counters = collect_counters ? &registry_ : nullptr;
  ctx.node = node_id_;
  if (!ctx.Active()) return;
  mac_.AttachTrace(ctx);
  link_.AttachTrace(ctx);
  generator_.AttachTrace(ctx);
  sink_.AttachTrace(ctx);
}

void NodeStack::Start() { generator_.Start(); }

SimulationResult NodeStack::Harvest(sim::Time end_time,
                                    std::uint64_t events_executed) {
  SimulationResult result;
  result.log = std::move(link_.MutableLog());
  result.unique_delivered = sink_.UniqueCount();
  result.duplicates = sink_.DuplicateCount();
  result.unique_payload_bytes = sink_.UniquePayloadBytes();
  result.last_delivery_at = sink_.LastDeliveryAt();
  result.end_time = end_time;
  result.generated = generator_.Generated();
  result.mean_snr_db = channel_.MeanSnrDb(phy::OutputPowerDbm(pa_level_));
  result.rssi_stats = sink_.RssiStats();
  result.snr_stats = sink_.SnrStats();
  result.lqi_stats = sink_.LqiStats();
  result.cca_busy = mac_.CcaBusyCount();
  result.receiver_idle_duty = lpl_ ? lpl_->ReceiverIdleDutyCycle() : 1.0;
  result.events_executed = events_executed;
  if (collect_counters_) result.counters = registry_.Snapshot();
  return result;
}

}  // namespace wsnlink::node
