// Bulk-transfer example — the paper's Sec. VIII-C case study as an
// application: an indoor sensor must push a large buffer of data to a base
// station in a short time slot over a poor (grey-zone) link, maximising
// throughput subject to an energy budget.
//
// The example compares the transfer time and energy of (a) the deployment's
// default configuration, (b) the "just raise the power" fix, and (c) the
// joint multi-layer optimisation via the epsilon-constraint solver.
#include <iostream>

#include "core/models/model_set.h"
#include "core/opt/baselines.h"
#include "core/opt/epsilon_constraint.h"
#include "example_flags.h"
#include "metrics/link_metrics.h"
#include "node/link_simulation.h"
#include "util/args.h"
#include "util/table.h"

namespace {

using namespace wsnlink;

// The case-study link: a 35 m placement in a deep fade; SNR reaches ~6 dB
// only at maximum output power.
constexpr double kShadowDb = -17.3;
constexpr double kBufferBytes = 64.0 * 1024.0;  // 64 KiB of samples

struct TransferOutcome {
  double seconds = 0.0;
  double millijoules = 0.0;
  double goodput_kbps = 0.0;
};

TransferOutcome Transfer(const core::StackConfig& config,
                         const util::Args& args) {
  node::SimulationOptions options;
  options.config = config;
  options.seed = 11;
  options.spatial_shadow_db = kShadowDb;
  options.disable_temporal_shadowing = true;
  options.packet_count = 1200;
  examples::ApplySimFlags(args, options);
  const auto m = metrics::MeasureConfig(options);

  TransferOutcome outcome;
  outcome.goodput_kbps = m.goodput_kbps;
  if (m.goodput_kbps > 0.0) {
    outcome.seconds = kBufferBytes * 8.0 / (m.goodput_kbps * 1000.0);
  }
  // Energy = energy-per-delivered-bit * buffer bits.
  outcome.millijoules = m.energy_uj_per_bit * kBufferBytes * 8.0 / 1000.0;
  return outcome;
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace wsnlink;

  const util::Args args(argc, argv, {"--seed", "--packets"}, {"--help"});
  if (args.Has("--help")) {
    std::cout << "usage: bulk_transfer [--seed N] [--packets N]\n";
    return 0;
  }

  std::cout << "Bulk transfer: push 64 KiB over a grey-zone 35 m link\n\n";

  const core::models::ModelSet models(
      core::models::kPaperPerFit, core::models::kPaperNtriesFit,
      core::models::kPaperPlrFit,
      core::models::LinkQualityMap(channel::PathLossParams{}, -95.0,
                                   kShadowDb));

  const auto base = core::opt::CaseStudyBaseConfig(35.0);

  // Joint optimisation: maximise goodput with an energy budget, searching
  // power x payload x retransmissions.
  const auto joint = core::opt::JointTuning(models, base, 0.55);

  util::TextTable table({"strategy", "config", "transfer[s]", "energy[mJ]",
                         "goodput[kbps]"});
  const auto add = [&table, &args](const std::string& name,
                                   const core::StackConfig& config) {
    const auto outcome = Transfer(config, args);
    table.NewRow()
        .Add(name)
        .Add(config.ToString())
        .Add(outcome.seconds, 1)
        .Add(outcome.millijoules, 1)
        .Add(outcome.goodput_kbps, 2);
  };
  add("deployment default", base);
  add("raise power only [11]", core::opt::TunePowerBaseline(base).config);
  add("joint optimisation", joint.config);
  std::cout << table << "\n";

  std::cout << "The joint configuration transfers the buffer faster AND "
               "cheaper: the paper's Fig. 1 trade-off in application "
               "terms.\n";
  return 0;
} catch (const std::exception& e) {
  std::cerr << "bulk_transfer: " << e.what() << "\n";
  return 1;
}
