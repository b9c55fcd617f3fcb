// End-to-end simulation of one sender-receiver experiment.
//
// This is the synthetic counterpart of one experiment run in the paper: one
// stack parameter configuration, a fixed number of packets, per-packet and
// per-attempt logs. The stack itself — channel (from the config's
// distance), CC2420 PHY, CSMA MAC, bounded queue, traffic source and sink —
// is assembled by node_stack.h, the same stack each node of a network run
// (network_simulation.h) builds; both runners validate their options
// through ResolveNodeOptions.
#pragma once

#include <cstdint>

#include "app/sink.h"
#include "channel/channel.h"
#include "core/stack_config.h"
#include "link/packet_log.h"
#include "trace/trace.h"
#include "util/stats.h"

namespace wsnlink::node {

/// Which MAC runs the link.
enum class MacKind {
  kCsma,  ///< always-on unslotted CSMA-CA (the paper's experiments)
  kLpl,   ///< duty-cycled low-power listening (extension study)
};

/// Knobs of one simulation run beyond the stack configuration itself.
struct SimulationOptions {
  /// The multi-layer parameter configuration under test.
  core::StackConfig config;
  /// MAC selection; kLpl reads `lpl_wakeup_interval_ms` as well.
  MacKind mac = MacKind::kCsma;
  /// Receiver wakeup period for the LPL MAC (ms).
  double lpl_wakeup_interval_ms = 100.0;
  /// Root seed; every random stream derives deterministically from it.
  std::uint64_t seed = 1;
  /// Packets the sender generates (paper: 4500 per configuration).
  int packet_count = 1000;
  /// Poisson instead of periodic arrivals (off in the paper's setup).
  bool poisson_arrivals = false;
  /// Use the sharp analytic O-QPSK BER instead of the calibrated empirical
  /// curve (for the channel ablation).
  bool analytic_ber = false;
  /// Static spatial shadowing offset in dB (0 = calibrated mean placement).
  double spatial_shadow_db = 0.0;
  /// Disable the temporal shadowing process (ablation).
  bool disable_temporal_shadowing = false;
  /// Disable interference bursts (ablation; also quietens CCA).
  bool disable_interference = false;
  /// Concurrent-transmitter offered load in [0, 1) (0 = none); models the
  /// Sec. VIII-D collision factor.
  double interferer_duty_cycle = 0.0;
  /// Received power of the concurrent transmitter at our receiver, dBm.
  double interferer_power_dbm = -70.0;
  /// Node mobility (Sec. VIII-D): patrol speed in m/s (0 = static) between
  /// `mobility_min_m` and `mobility_max_m`, starting at config.distance_m.
  double mobility_speed_mps = 0.0;
  double mobility_min_m = 10.0;
  double mobility_max_m = 35.0;
  /// Optional event tracer: when non-null, every layer emits its lifecycle
  /// events into it (see trace/trace.h). Tracing only observes: a traced
  /// run executes the same events and draws as an untraced one. The tracer
  /// must outlive the call and belongs to this run only (not
  /// thread-shared).
  trace::Tracer* tracer = nullptr;
  /// Collect the per-layer named counters into SimulationResult::counters.
  /// Cheap (a dozen array increments per packet); on by default.
  bool collect_counters = true;
};

/// Everything a run produces.
struct SimulationResult {
  /// Sender-side per-packet and per-attempt logs.
  link::PacketLog log;
  /// Unique packets decoded by the receiver.
  std::uint64_t unique_delivered = 0;
  /// Duplicate copies decoded (lost-ACK retransmissions).
  std::uint64_t duplicates = 0;
  /// Unique payload bytes delivered (goodput numerator).
  std::uint64_t unique_payload_bytes = 0;
  /// Simulated time of the last unique delivery.
  sim::Time last_delivery_at = 0;
  /// Simulated time when the run finished (all packets resolved).
  sim::Time end_time = 0;
  /// Packets generated by the application.
  int generated = 0;
  /// Ground-truth mean SNR of the link (channel mean RSSI - quiet floor).
  double mean_snr_db = 0.0;
  /// Receiver-side channel reading statistics (decoded copies only).
  util::RunningStats rssi_stats;
  util::RunningStats snr_stats;
  util::RunningStats lqi_stats;
  /// MAC diagnostics.
  std::uint64_t cca_busy = 0;
  /// Receiver radio duty cycle while idle: 1.0 for the always-on CSMA
  /// receiver, probe/wakeup for LPL. Multiplied by the CC2420 RX power
  /// this gives the receiver-side idle power (the LPL trade-off's other
  /// half).
  double receiver_idle_duty = 1.0;
  /// Kernel diagnostics.
  std::uint64_t events_executed = 0;
  /// Per-layer named counter snapshot, sorted by name (empty when
  /// SimulationOptions::collect_counters is false).
  std::vector<trace::CounterSample> counters;
};

/// Runs one experiment to completion. Deterministic in (options): the
/// result is the same for a fresh and a reused scratch.
[[nodiscard]] SimulationResult RunLinkSimulation(const SimulationOptions& options);

struct LinkRunScratch;

/// The one single-link runner: every growable resource the run needs is
/// recycled from `scratch` (see run_scratch.h), so after warm-up the only
/// steady-state heap allocation is the result's counters snapshot. The
/// overload above runs this on a fresh scratch. A run that throws leaves
/// `scratch` reusable.
[[nodiscard]] SimulationResult RunLinkSimulation(const SimulationOptions& options,
                                                 LinkRunScratch& scratch);

/// Builds the channel configuration a simulation with these options uses
/// (exposed so benches can query mean SNR or sample noise consistently).
[[nodiscard]] channel::ChannelConfig MakeChannelConfig(
    const SimulationOptions& options);

}  // namespace wsnlink::node
