// Quickstart: simulate one configuration, predict it with the empirical
// models, and compare measured vs predicted metrics.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// Inspecting a run (docs/TRACING.md):
//   ./build/examples/quickstart --trace-out run.json --trace-csv run.csv
// then load run.json into chrome://tracing or https://ui.perfetto.dev.
#include <iostream>

#include "core/models/model_set.h"
#include "example_flags.h"
#include "metrics/link_metrics.h"
#include "node/link_simulation.h"
#include "trace/export.h"
#include "trace/trace.h"
#include "util/args.h"
#include "util/table.h"

int main(int argc, char** argv) try {
  using namespace wsnlink;

  const util::Args args(argc, argv,
                        {"--seed", "--packets", "--trace-out", "--trace-csv"},
                        {"--help"});
  if (args.Has("--help")) {
    std::cout
        << "usage: quickstart [--seed N] [--packets N]\n"
           "                  [--trace-out FILE.json] [--trace-csv FILE.csv]\n"
           "  --trace-out   write the run's event trace as Chrome trace_event\n"
           "                JSON (open in chrome://tracing / Perfetto)\n"
           "  --trace-csv   write the same events as a flat CSV\n";
    return 0;
  }

  // 1. Describe the deployment: one sender-receiver pair, 20 m apart, a
  //    sensing application emitting a 110-byte reading every 100 ms.
  core::StackConfig config;
  config.distance_m = 20.0;
  config.pa_level = 19;
  config.max_tries = 3;
  config.retry_delay_ms = 0.0;
  config.queue_capacity = 5;
  config.pkt_interval_ms = 100.0;
  config.payload_bytes = 110;

  std::cout << "Configuration: " << config.ToString() << "\n";

  // 2. Predict the performance with the paper's empirical models.
  const core::models::ModelSet models;
  const auto predicted = models.Predict(config);

  // 3. Measure the same configuration on the simulated link, tracing the
  //    run when asked to.
  node::SimulationOptions options;
  options.config = config;
  options.seed = 42;
  options.packet_count = 2000;
  examples::ApplySimFlags(args, options);

  const std::string trace_out = args.GetString("--trace-out", "");
  const std::string trace_csv = args.GetString("--trace-csv", "");
  trace::Tracer tracer;
  if (!trace_out.empty() || !trace_csv.empty()) options.tracer = &tracer;

  const auto result = node::RunLinkSimulation(options);
  const auto measured =
      metrics::ComputeMetrics(result, config.pkt_interval_ms);

  // 4. Compare.
  util::TextTable table({"metric", "model prediction", "measured"});
  table.NewRow().Add("link SNR [dB]").Add(predicted.snr_db, 1).Add("-");
  table.NewRow().Add("PER").Add(predicted.per, 4).Add(measured.per, 4);
  table.NewRow()
      .Add("service time [ms]")
      .Add(predicted.service_time_ms, 2)
      .Add(measured.mean_service_ms, 2);
  table.NewRow()
      .Add("utilization rho")
      .Add(predicted.utilization, 3)
      .Add(measured.utilization, 3);
  table.NewRow()
      .Add("energy [uJ/bit]")
      .Add(predicted.energy_uj_per_bit, 3)
      .Add(measured.energy_uj_per_bit, 3);
  table.NewRow()
      .Add("delay [ms]")
      .Add(predicted.total_delay_ms, 2)
      .Add(measured.mean_delay_ms, 2);
  table.NewRow()
      .Add("loss rate")
      .Add(predicted.plr_total, 4)
      .Add(measured.plr_total, 4);
  std::cout << table;

  std::cout << "\n" << models.SummaryTable() << "\n";

  // 5. Export the trace and the per-layer counters.
  if (options.tracer != nullptr) {
    const auto events = tracer.Events();
    if (!trace_out.empty()) {
      trace::WriteChromeTraceJson(trace_out, events, result.counters);
      std::cout << "wrote " << events.size() << " trace events to "
                << trace_out << " (chrome://tracing)\n";
    }
    if (!trace_csv.empty()) {
      trace::WriteTraceCsv(trace_csv, events);
      std::cout << "wrote " << events.size() << " trace events to "
                << trace_csv << "\n";
    }
    if (tracer.DroppedCount() > 0) {
      std::cout << "note: ring dropped " << tracer.DroppedCount()
                << " oldest events\n";
    }
    std::cout << "\ncounters:\n";
    for (const auto& c : result.counters) {
      std::cout << "  " << c.name << " = " << c.value << "\n";
    }
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "quickstart: " << e.what() << "\n";
  return 1;
}
