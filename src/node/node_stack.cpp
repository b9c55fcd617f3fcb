#include "node/node_stack.h"

#include <utility>

#include "mac/csma_mac.h"
#include "mac/lpl_mac.h"
#include "phy/cc2420.h"

namespace wsnlink::node {

NodeStack::NodeStack(sim::Simulator& simulator,
                     const SimulationOptions& options, util::Rng root,
                     channel::Medium* medium, int node_id,
                     LinkRunScratch* scratch)
    : options_(options),
      node_id_(node_id),
      arena_(scratch != nullptr ? &scratch->arena : &own_arena_),
      registry_(scratch != nullptr ? &scratch->node_registry
                                   : &own_registry_) {
  const channel::BerModel* ber =
      options_.analytic_ber
          ? static_cast<const channel::BerModel*>(&analytic_ber_)
          : static_cast<const channel::BerModel*>(&calibrated_ber_);
  channel_ = arena_->New<channel::Channel>(MakeChannelConfig(options_), ber,
                                           root.Derive("channel"));
  if (medium != nullptr) channel_->AttachMedium(medium, node_id_);

  if (options_.mac == MacKind::kCsma) {
    mac::MacParams mac_params;
    mac_params.max_tries = options_.config.max_tries;
    mac_params.retry_delay =
        sim::FromMilliseconds(options_.config.retry_delay_ms);
    mac_params.pa_level = options_.config.pa_level;
    mac_ = arena_->New<mac::CsmaMac>(simulator, *channel_, mac_params,
                                     root.Derive("mac"));
  }
  if (options_.mac == MacKind::kLpl) {
    mac::LplParams lpl_params;
    lpl_params.wakeup_interval =
        sim::FromMilliseconds(options_.lpl_wakeup_interval_ms);
    lpl_params.max_tries = options_.config.max_tries;
    lpl_params.retry_delay =
        sim::FromMilliseconds(options_.config.retry_delay_ms);
    lpl_params.pa_level = options_.config.pa_level;
    auto* lpl = arena_->New<mac::LplMac>(simulator, *channel_, lpl_params,
                                         root.Derive("mac"));
    receiver_idle_duty_ = lpl->ReceiverIdleDutyCycle();
    mac_ = lpl;
  }

  link::LinkLayer::Storage link_storage;
  if (scratch != nullptr) {
    link_storage.queue = &scratch->queue_buf;
    link_storage.open_records = &scratch->open_buf;
  }
  link_ = arena_->New<link::LinkLayer>(
      simulator, *mac_, options_.config.queue_capacity, link_storage);
  if (scratch != nullptr) {
    link_->MutableLog().AdoptStorage(std::move(scratch->packet_buf),
                                     std::move(scratch->attempt_buf));
    sink_.AttachStorage(&scratch->seen_buf, &scratch->reception_buf);
  }
  // The run's log sizes are known up front: one record per generated packet
  // and at most max_tries attempts each. Reserving avoids mid-run regrowth.
  link_->MutableLog().Reserve(
      static_cast<std::size_t>(options_.packet_count),
      static_cast<std::size_t>(options_.packet_count) *
          static_cast<std::size_t>(options_.config.max_tries));

  sink_.Reserve(static_cast<std::size_t>(options_.packet_count));
  link_->SetDeliveryCallback(
      [this](const mac::DeliveryInfo& info) { sink_.OnDelivery(info); });

  app::TrafficParams traffic;
  traffic.pkt_interval = sim::FromMilliseconds(options_.config.pkt_interval_ms);
  traffic.payload_bytes = options_.config.payload_bytes;
  traffic.packet_count = options_.packet_count;
  traffic.poisson = options_.poisson_arrivals;
  generator_ = arena_->New<app::TrafficGenerator>(simulator, *link_, traffic,
                                                  root.Derive("traffic"));
}

void NodeStack::AttachTrace(trace::Tracer* tracer, bool collect_counters) {
  collect_counters_ = collect_counters;
  trace::TraceContext ctx;
  ctx.tracer = tracer;
  ctx.counters = collect_counters ? registry_ : nullptr;
  ctx.node = node_id_;
  if (!ctx.Active()) return;
  mac_->AttachTrace(ctx);
  link_->AttachTrace(ctx);
  generator_->AttachTrace(ctx);
  sink_.AttachTrace(ctx);
}

void NodeStack::Start() { generator_->Start(); }

SimulationResult NodeStack::Harvest(sim::Time end_time,
                                    std::uint64_t events_executed) {
  SimulationResult result;
  result.log = std::move(link_->MutableLog());
  result.unique_delivered = sink_.UniqueCount();
  result.duplicates = sink_.DuplicateCount();
  result.unique_payload_bytes = sink_.UniquePayloadBytes();
  result.last_delivery_at = sink_.LastDeliveryAt();
  result.end_time = end_time;
  result.generated = generator_->Generated();
  result.mean_snr_db =
      channel_->MeanSnrDb(phy::OutputPowerDbm(options_.config.pa_level));
  result.rssi_stats = sink_.RssiStats();
  result.snr_stats = sink_.SnrStats();
  result.lqi_stats = sink_.LqiStats();
  result.cca_busy = mac_->CcaBusyCount();
  result.receiver_idle_duty = receiver_idle_duty_;
  result.events_executed = events_executed;
  if (collect_counters_) {
    result.counters = run_registry_ != nullptr
                          ? trace::SnapshotMerged(*registry_, *run_registry_)
                          : registry_->Snapshot();
  }
  return result;
}

}  // namespace wsnlink::node
