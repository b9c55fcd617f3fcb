// Contention sweep: how a link degrades as senders share the medium.
//
// The paper studies one sender and folds "other traffic" into a collision
// factor (Sec. VIII-D). The network simulation replaces that with real
// contention: N senders on one collision domain, carrier sense observing
// each other's transmissions, overlaps resolved by SINR capture. This tool
// runs a node-count ladder and prints/exports how PER, loss, queue drops
// and carrier-sense pressure scale with contenders.
//
//   ./build/examples/contention_sweep --nodes 1,2,4 --packets 400
//   ./build/examples/contention_sweep --nodes 2 --interferer-duty 0.05
//       --no-shared-medium            (ablation: the paper's synthetic model)
//
// The CSV (--csv FILE) is deterministic in the flags, byte for byte.
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "experiment/contention.h"
#include "node/link_simulation.h"
#include "util/args.h"
#include "util/table.h"

namespace {

using namespace wsnlink;

std::vector<int> ParseNodeList(const std::string& list) {
  std::vector<int> nodes;
  std::size_t begin = 0;
  while (begin <= list.size()) {
    const std::size_t comma = list.find(',', begin);
    const std::size_t end = comma == std::string::npos ? list.size() : comma;
    nodes.push_back(
        util::ParsePositiveInt(list.substr(begin, end - begin), "--nodes"));
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  return nodes;
}

}  // namespace

int main(int argc, char** argv) try {
  const util::Args args(argc, argv,
                        {"--nodes", "--packets", "--seed", "--distance",
                         "--spacing", "--interferer-duty", "--mac", "--csv"},
                        {"--help", "--no-shared-medium"});
  if (args.Has("--help")) {
    std::cout
        << "usage: contention_sweep [--nodes N1,N2,...] [--packets N]\n"
           "                        [--seed N] [--distance M] [--spacing M]\n"
           "                        [--mac csma|lpl] [--interferer-duty D]\n"
           "                        [--no-shared-medium] [--csv FILE]\n"
           "  --nodes             node-count ladder (default 1,2,4)\n"
           "  --spacing           extra sink distance per node [m]\n"
           "  --interferer-duty   synthetic duty-cycle interferer (ablation)\n"
           "  --no-shared-medium  disable emergent contention (ablation)\n"
           "  --csv               write the ladder as deterministic CSV\n"
           "Rungs run in parallel; each network run is sequential.\n";
    return 0;
  }

  experiment::ContentionOptions options;
  options.node_counts = ParseNodeList(args.GetString("--nodes", "1,2,4"));
  options.packet_count = args.GetPositiveInt("--packets", 400);
  options.base_seed =
      static_cast<std::uint64_t>(args.GetInt("--seed", 1));
  options.config.distance_m = args.GetDouble("--distance", 20.0);
  options.config.pkt_interval_ms = 25.0;
  options.node_spacing_m = args.GetDouble("--spacing", 0.0);
  options.interferer_duty_cycle = args.GetDouble("--interferer-duty", 0.0);
  options.shared_medium = !args.Has("--no-shared-medium");
  const std::string mac = args.GetString("--mac", "csma");
  if (mac == "csma") {
    options.mac = node::MacKind::kCsma;
  } else if (mac == "lpl") {
    options.mac = node::MacKind::kLpl;
  } else {
    throw std::invalid_argument("--mac must be csma or lpl, got " + mac);
  }

  const auto points = experiment::RunContentionSweep(options);

  util::TextTable table({"nodes", "generated", "delivered", "per",
                         "plr_total", "queue_drops", "cca_busy",
                         "collisions", "captures"});
  for (const auto& p : points) {
    table.NewRow()
        .Add(std::to_string(p.nodes))
        .Add(std::to_string(p.result.generated))
        .Add(std::to_string(p.result.delivered_unique))
        .Add(p.result.per, 4)
        .Add(p.result.plr_total, 4)
        .Add(std::to_string(p.result.queue_drops))
        .Add(std::to_string(p.result.cca_busy))
        .Add(std::to_string(p.result.medium.collisions))
        .Add(std::to_string(p.result.medium.captures));
  }
  std::cout << "Contention ladder (" << mac << ", "
            << (options.shared_medium ? "shared medium"
                                      : "no shared medium (ablation)")
            << ", " << options.packet_count << " packets/node):\n"
            << table;

  const std::string csv_path = args.GetString("--csv", "");
  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out) {
      throw std::runtime_error("cannot open " + csv_path + " for writing");
    }
    out << experiment::ContentionCsvHeader() << "\n";
    for (const auto& p : points) {
      out << experiment::SerializeContentionRow(p) << "\n";
    }
    std::cout << "wrote " << points.size() << " rows to " << csv_path << "\n";
  }
  return 0;
} catch (const std::exception& e) {
  std::cerr << "contention_sweep: " << e.what() << "\n";
  return 1;
}
