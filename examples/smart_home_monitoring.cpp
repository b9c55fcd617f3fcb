// Smart-home monitoring example.
//
// The paper motivates one-hop WSN links with smart-home deployments (~25%
// of real deployments are single-hop). This example configures a sensor
// that reports readings every 200 ms to a base station 18 m away, with two
// competing requirements: packet loss below 1% and minimal energy (battery
// powered). It uses the per-metric guidelines (Sec. IV-C / VII-B) and shows
// what each recommendation costs on the simulated link.
#include <iostream>

#include "core/opt/guidelines.h"
#include "example_flags.h"
#include "metrics/link_metrics.h"
#include "node/link_simulation.h"
#include "util/args.h"
#include "util/table.h"

namespace {

using namespace wsnlink;

metrics::LinkMetrics Evaluate(const core::StackConfig& config,
                              const util::Args& args) {
  node::SimulationOptions options;
  options.config = config;
  options.seed = 7;
  options.packet_count = 2000;
  examples::ApplySimFlags(args, options);
  return metrics::MeasureConfig(options);
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace wsnlink;

  const util::Args args(argc, argv, {"--seed", "--packets"}, {"--help"});
  if (args.Has("--help")) {
    std::cout << "usage: smart_home_monitoring [--seed N] [--packets N]\n";
    return 0;
  }

  std::cout << "Smart-home monitoring: sensor -> base station, 18 m, one "
               "reading every 200 ms\n\n";

  core::opt::Deployment deployment;
  deployment.distance_m = 18.0;
  deployment.pkt_interval_ms = 200.0;

  const core::opt::Guidelines guidelines;

  // A naive deployment for contrast: everything at defaults/maximum.
  core::StackConfig naive;
  naive.distance_m = deployment.distance_m;
  naive.pkt_interval_ms = deployment.pkt_interval_ms;
  naive.pa_level = 31;
  naive.max_tries = 1;
  naive.queue_capacity = 1;
  naive.payload_bytes = 20;

  const auto energy_rec = guidelines.MinimizeEnergy(deployment);
  const auto loss_rec = guidelines.MinimizeLoss(deployment, 0.01);
  const auto delay_rec = guidelines.MinimizeDelay(deployment);

  util::TextTable table({"policy", "config", "loss", "energy[uJ/bit]",
                         "delay[ms]", "rho"});
  const auto add_row = [&table, &args](const std::string& name,
                                       const core::StackConfig& config) {
    const auto m = Evaluate(config, args);
    table.NewRow()
        .Add(name)
        .Add(config.ToString())
        .Add(m.plr_total, 4)
        .Add(m.energy_uj_per_bit, 3)
        .Add(m.mean_delay_ms, 2)
        .Add(m.utilization, 3);
  };
  add_row("naive defaults", naive);
  add_row("energy guideline (IV-C)", energy_rec.config);
  add_row("loss guideline (VII-B)", loss_rec.config);
  add_row("delay guideline (VI-B)", delay_rec.config);
  std::cout << table << "\n";

  std::cout << "guideline rationales:\n"
            << "  energy: " << energy_rec.rationale << "\n"
            << "  loss:   " << loss_rec.rationale << "\n"
            << "  delay:  " << delay_rec.rationale << "\n\n";

  // The energy guideline batches readings into the maximum payload. For a
  // sensor producing 20 B per reading, that means aggregating ~5 readings
  // per packet: show the resulting duty-cycle arithmetic.
  const auto& cfg = energy_rec.config;
  const double readings_per_packet = cfg.payload_bytes / 20.0;
  std::cout << "energy guideline batches ~"
            << util::FormatDouble(readings_per_packet, 1)
            << " readings per " << cfg.payload_bytes
            << " B packet at PA level " << cfg.pa_level
            << " -> predicted " << util::FormatDouble(
                   energy_rec.predicted.energy_uj_per_bit, 3)
            << " uJ per delivered bit\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "smart_home_monitoring: " << e.what() << "\n";
  return 1;
}
