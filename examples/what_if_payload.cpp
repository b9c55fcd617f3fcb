// what_if_payload — offline payload tuning from a recorded attempt trace.
//
// Reads a per-attempt CSV (a trace from outside the repository, such as
// the paper's public dataset converted to the columns of
// experiment::ReadAttemptLogCsv) and answers: on the channel
// this trace recorded, what PER / radio loss / saturated goodput would each
// candidate payload have achieved, and which payload is goodput-optimal?
//
// Usage:
//   what_if_payload <attempts.csv> [max_tries]
//
// With no arguments, the tool records a demonstration trace itself (grey-
// zone link) and analyses that.
#include <iostream>
#include <string>

#include "channel/ber.h"
#include "experiment/dataset.h"
#include "metrics/what_if.h"
#include "node/link_simulation.h"
#include "util/args.h"
#include "util/table.h"

int main(int argc, char** argv) {
  using namespace wsnlink;

  std::vector<link::AttemptRecord> trace;
  int max_tries = 3;
  if (argc >= 2) {
    try {
      trace = experiment::ReadAttemptLogCsv(argv[1]);
    } catch (const std::exception& e) {
      std::cerr << "cannot read " << argv[1] << ": " << e.what() << "\n";
      return 1;
    }
    if (argc >= 3) {
      try {
        // atoi would silently turn garbage ("abc", "0", "-3") into a
        // nonsensical retry budget; reject anything that is not >= 1.
        max_tries = util::ParsePositiveInt(argv[2], "max_tries");
      } catch (const std::exception& e) {
        std::cerr << e.what()
                  << "\nusage: what_if_payload <attempts.csv> [max_tries]\n";
        return 2;
      }
    }
    std::cout << "trace: " << trace.size() << " attempts from " << argv[1]
              << "\n\n";
  } else {
    std::cout << "no trace given: recording a demonstration trace "
                 "(35 m grey-zone link, 1500 packets)\n\n";
    node::SimulationOptions options;
    options.config.distance_m = 35.0;
    options.config.pa_level = 11;
    options.config.max_tries = 1;
    options.config.queue_capacity = 1;
    options.config.pkt_interval_ms = 40.0;
    options.config.payload_bytes = 60;
    options.packet_count = 1500;
    options.seed = 7;
    const auto result = node::RunLinkSimulation(options);
    trace = result.log.Attempts();
  }
  if (trace.empty()) {
    std::cerr << "empty trace\n";
    return 1;
  }

  const channel::CalibratedExponentialBer ber;
  const std::vector<int> candidates{5, 10, 20, 30, 40, 50, 60, 70,
                                    80, 90, 100, 110, 114};
  const auto results =
      metrics::PayloadWhatIf(trace, ber, candidates, max_tries);

  util::TextTable table({"payload[B]", "PER", "PLR_radio(N)",
                         "maxGoodput[kbps]"});
  for (const auto& r : results) {
    table.NewRow()
        .Add(r.payload_bytes)
        .Add(r.per, 3)
        .Add(r.plr_radio, 4)
        .Add(r.max_goodput_kbps, 2);
  }
  std::cout << table << "\ngoodput-optimal payload on this trace (N = "
            << max_tries << "): "
            << metrics::BestPayloadOnTrace(trace, ber, max_tries) << " B\n";
  return 0;
}
