// The full measurement campaign (Sec. II-C), regenerated synthetically.
//
// The paper iterated, for each of the distances, all 8064 combinations of
// the remaining six parameters with 4500 packets each — ~48k configurations
// and >200M packets over six months. The campaign driver reproduces that
// sweep (optionally subsampled / with fewer packets per config) and emits
// the per-configuration summary dataset.
#pragma once

#include <cstdint>
#include <string>

#include "core/opt/config_space.h"
#include "experiment/sweep.h"

namespace wsnlink::experiment {

/// Campaign scaling knobs.
struct CampaignOptions {
  /// The parameter space to sweep (default: the Table I reconstruction).
  core::opt::ConfigSpace space = core::opt::ConfigSpace::PaperTableI();
  /// Packets per configuration (paper fidelity: 4500).
  int packet_count = 300;
  /// Keep every k-th configuration (1 = full campaign). Deterministic
  /// subsampling for quick passes. Must be >= 1.
  std::size_t stride = 1;
  std::uint64_t base_seed = 2013;  // the paper's measurement year
  /// Parallelism cap, forwarded to the sweep executor (see
  /// SweepOptions::threads; the campaign runs on the shared pool, never on
  /// its own threads).
  unsigned threads = 0;
  /// If non-empty, the per-config summary CSV is written here.
  std::string summary_csv_path;
  /// Collect per-layer counters per point and roll them up into
  /// CampaignResult::counters.
  bool collect_counters = true;
  /// Progress callback forwarded to the sweep (may be empty).
  std::function<void(std::size_t, std::size_t)> progress;

  // -- Crash safety (docs/ROBUSTNESS.md) ---------------------------------
  /// When non-empty, a checkpoint journal recording every completed
  /// configuration (its verbatim summary-CSV row and failure status) is
  /// kept here: the rows completed since the last write are appended and
  /// flushed every `checkpoint_every` completions, and the file is
  /// compacted (rewritten atomically, tmp + rename, in index order) for
  /// the first write to a file this run did not write and once more when
  /// the run ends (experiment/checkpoint.h).
  std::string checkpoint_path;
  /// Completed configurations between checkpoint writes (>= 1).
  std::size_t checkpoint_every = 64;
  /// Resume from `checkpoint_path` if the file exists: checkpointed
  /// configurations are restored verbatim (never re-simulated, never
  /// re-formatted) and only the remainder runs. The checkpoint's seed
  /// contract (base_seed, packet_count, stride, space size) must match
  /// this options struct or RunCampaign throws CheckpointError. With no
  /// checkpoint file present, resume behaves like a fresh run.
  bool resume = false;
  /// Stop cleanly after ~N newly completed configurations (0 = no cap):
  /// the checkpoint is written and the partial result returned with
  /// `complete == false` and no summary CSV. Models budgeted or
  /// interruptible runs; "~" because in-flight workers finish their
  /// current config. Requires checkpoint_path to be useful.
  std::size_t max_configs = 0;
};

/// Campaign outcome.
struct CampaignResult {
  std::vector<SweepPoint> points;
  /// Configurations swept (== points.size()).
  std::size_t configurations = 0;
  /// Total packets generated across the sweep.
  std::uint64_t total_packets = 0;
  /// Campaign-wide counter roll-up: the per-point snapshots summed by
  /// name (empty when collect_counters is false). Always carries a
  /// "campaign.configs_failed" sample; restored (resumed) points
  /// contribute no per-layer counters — the roll-up covers this process's
  /// simulated work.
  std::vector<trace::CounterSample> counters;
  /// Configurations whose worker threw (their points carry failed/error;
  /// the summary CSV gets a zeroed metrics row and <summary>.errors.csv
  /// the structured error records).
  std::size_t configs_failed = 0;
  /// Configurations restored from the checkpoint instead of simulated.
  std::size_t configs_resumed = 0;
  /// Damaged records the resumed checkpoint dropped (a torn append or bit
  /// rot); their configurations were simulated again.
  std::size_t checkpoint_records_dropped = 0;
  /// False when the run stopped early (max_configs budget): no summary
  /// CSV was written; resume from the checkpoint to continue.
  bool complete = true;
  /// First checkpoint-write failure, if any (the campaign degrades
  /// gracefully: a failed write never aborts the run — every record
  /// written before it stays valid and the next interval retries).
  std::string checkpoint_write_error;
};

/// Runs the campaign. Deterministic in options.
[[nodiscard]] CampaignResult RunCampaign(const CampaignOptions& options);

}  // namespace wsnlink::experiment
