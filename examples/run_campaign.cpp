// Campaign driver — regenerate the paper's measurement dataset.
//
// Sweeps the Table I configuration space (optionally strided / with fewer
// packets) and writes the per-configuration summary CSV, the synthetic
// equivalent of the paper's public dataset [15][16].
//
// Usage:
//   run_campaign [--stride N] [--packets N] [--out PATH] [--threads N]
//                [--seed N] [--checkpoint PATH] [--resume]
//                [--checkpoint-every N] [--max-configs N] [--abort-after N]
//
// The full campaign is 48,384 configurations; the default stride of 97
// keeps a quick demonstration under a minute. `--stride 1 --packets 4500`
// reproduces the full six-month campaign (hours of CPU time).
//
// Crash safety (docs/ROBUSTNESS.md): with `--checkpoint PATH`, completed
// configurations are persisted every `--checkpoint-every` completions; a
// crashed or budget-limited (`--max-configs`) run restarts with `--resume`
// and produces a summary CSV byte-identical to an uninterrupted run.
// `--abort-after N` hard-kills the process (no cleanup, no flush) after N
// completions — the CI crash-drill hook; never useful in production.
#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "experiment/campaign.h"
#include "util/args.h"
#include "util/table.h"

namespace {

constexpr const char* kUsage =
    "usage: run_campaign [--stride N] [--packets N] [--out PATH]\n"
    "                    [--threads N] [--seed N] [--checkpoint PATH]\n"
    "                    [--resume] [--checkpoint-every N] [--max-configs N]\n"
    "                    [--abort-after N]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace wsnlink;

  experiment::CampaignOptions options;
  std::size_t abort_after = 0;
  try {
    const util::Args args(argc, argv, {"--resume"});
    options.stride = args.GetSize("--stride", 97);
    if (options.stride < 1) {
      throw std::invalid_argument("--stride must be >= 1");
    }
    options.packet_count = args.GetPositiveInt("--packets", 200);
    options.summary_csv_path = args.GetString("--out", "campaign_summary.csv");
    options.threads = static_cast<unsigned>(args.GetInt("--threads", 0));
    options.base_seed = args.GetSize("--seed", options.base_seed);
    options.checkpoint_path = args.GetString("--checkpoint", "");
    options.checkpoint_every = static_cast<std::size_t>(
        args.GetPositiveInt("--checkpoint-every", 64));
    options.resume = args.Has("--resume");
    options.max_configs = args.GetSize("--max-configs", 0);
    abort_after = args.GetSize("--abort-after", 0);
    if (options.resume && options.checkpoint_path.empty()) {
      throw std::invalid_argument("--resume requires --checkpoint PATH");
    }
    if (!args.Positional().empty()) {
      throw std::invalid_argument("unexpected positional argument");
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n" << kUsage;
    return 2;
  }

  const auto total = options.space.Size();
  std::cout << "Table I space: " << total << " configurations ("
            << options.space.SizePerDistance() << " per distance x "
            << options.space.distances_m.size() << " distances)\n"
            << "sweeping every " << options.stride << "-th configuration, "
            << options.packet_count << " packets each -> "
            << options.summary_csv_path << "\n";
  if (!options.checkpoint_path.empty()) {
    std::cout << "checkpointing every " << options.checkpoint_every
              << " configurations -> " << options.checkpoint_path
              << (options.resume ? " (resuming)" : "") << "\n";
  }

  options.progress = [abort_after](std::size_t done, std::size_t all) {
    if (done % 50 == 0 || done == all) {
      std::cout << "\r  " << done << " / " << all << " configurations"
                << std::flush;
    }
    // Crash drill: simulate a power cut / OOM-kill. _Exit skips every
    // destructor and buffer flush on purpose — only the checkpoint
    // records already flushed survive, exactly like a real crash.
    if (abort_after > 0 && done >= abort_after) {
      std::cout << "\nsimulated crash after " << done << " configurations\n";
      std::_Exit(3);
    }
  };

  try {
    const auto result = experiment::RunCampaign(options);
    if (!result.checkpoint_write_error.empty()) {
      std::cerr << "\nwarning: a checkpoint write failed ("
                << result.checkpoint_write_error
                << "); the records written before it remained valid\n";
    }
    if (result.checkpoint_records_dropped > 0) {
      std::cerr << "\nwarning: dropped "
                << result.checkpoint_records_dropped
                << " damaged checkpoint record(s); their configurations "
                   "were run again\n";
    }
    if (!result.complete) {
      std::cout << "\ninterrupted by --max-configs budget: "
                << (result.configs_resumed) << " restored + new work saved to "
                << options.checkpoint_path << "; rerun with --resume\n";
      return 3;
    }
    std::cout << "\ndone: " << result.configurations << " configurations ("
              << result.configs_resumed << " resumed from checkpoint, "
              << result.configs_failed << " failed), " << result.total_packets
              << " packets simulated\n";
    if (result.configs_failed > 0) {
      std::cout << "structured error records: " << options.summary_csv_path
                << ".errors.csv\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "\ncampaign failed: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
