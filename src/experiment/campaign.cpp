#include "experiment/campaign.h"

#include <atomic>
#include <filesystem>
#include <mutex>
#include <stdexcept>

#include "experiment/checkpoint.h"
#include "experiment/dataset.h"
#include "experiment/journal.h"
#include "util/csv.h"

namespace wsnlink::experiment {

namespace {

/// One configuration slot: once done, its row is what the checkpoint
/// records and the final CSV emits.
struct RowSlot {
  bool done = false;
  CheckpointRow row;
};

}  // namespace

CampaignResult RunCampaign(const CampaignOptions& options) {
  if (options.stride < 1) {
    throw std::invalid_argument("RunCampaign: stride must be >= 1");
  }
  if (options.checkpoint_every < 1) {
    throw std::invalid_argument("RunCampaign: checkpoint_every must be >= 1");
  }
  options.space.Validate();

  std::vector<core::StackConfig> configs;
  const std::size_t size = options.space.Size();
  configs.reserve(size / options.stride + 1);
  for (std::size_t i = 0; i < size; i += options.stride) {
    configs.push_back(options.space.At(i));
  }

  CheckpointMeta meta;
  meta.base_seed = options.base_seed;
  meta.packet_count = options.packet_count;
  meta.stride = options.stride;
  meta.space_size = size;
  meta.config_count = configs.size();

  // Restore completed work from a previous (interrupted) run.
  std::vector<RowSlot> slots(configs.size());
  std::vector<bool> skip;
  std::size_t restored = 0;
  std::size_t checkpoint_dropped = 0;
  if (options.resume && !options.checkpoint_path.empty() &&
      std::filesystem::exists(options.checkpoint_path)) {
    const Checkpoint loaded = ReadCheckpoint(options.checkpoint_path);
    if (!(loaded.meta == meta)) {
      throw CheckpointError(
          "checkpoint: " + options.checkpoint_path +
          " was taken under a different campaign contract (seed " +
          std::to_string(loaded.meta.base_seed) + "/" +
          std::to_string(meta.base_seed) + ", packets " +
          std::to_string(loaded.meta.packet_count) + "/" +
          std::to_string(meta.packet_count) + ", stride " +
          std::to_string(loaded.meta.stride) + "/" +
          std::to_string(meta.stride) + ", configs " +
          std::to_string(loaded.meta.config_count) + "/" +
          std::to_string(meta.config_count) +
          ") — resumed rows would not be reproducible");
    }
    skip.assign(configs.size(), false);
    checkpoint_dropped = loaded.dropped;
    // ReadCheckpoint returns each index once.
    for (const auto& row : loaded.rows) {
      slots[row.index] = {true, row};
      skip[row.index] = true;
    }
    restored = loaded.rows.size();
  }

  // Checkpoint journal shared by the worker-side completion hook. All of
  // the mutable state below is guarded by `mutex`; the sweep guarantees
  // on_point fires at most once per index.
  std::mutex mutex;
  std::size_t completed_new = 0;
  std::size_t since_checkpoint = 0;
  std::string checkpoint_error;
  std::atomic<bool> cancelled{false};
  JournalWriter journal;
  // Row records completed since the last checkpoint write.
  std::string unsaved;

  // Appends the unsaved rows, or compacts: rewrites every completed row in
  // index order when `compact` is set or the journal cannot append (a
  // first write, a resumed file, a failed write since).
  const auto write_checkpoint_locked = [&](bool compact) {
    try {
      if (compact || !journal.TryAppend(options.checkpoint_path, unsaved)) {
        std::string file;
        AppendHeaderRecord(&file, meta);
        for (const RowSlot& slot : slots) {
          if (slot.done) AppendRowRecord(&file, slot.row);
        }
        journal.Compact(options.checkpoint_path, file);
      }
    } catch (const std::exception& e) {
      // Graceful degradation: the campaign outlives a failed checkpoint
      // write (every record written before it still loads, and the next
      // write compacts); record the failure and retry next interval.
      if (checkpoint_error.empty()) checkpoint_error = e.what();
    }
    unsaved.clear();
  };

  SweepOptions sweep;
  sweep.base_seed = options.base_seed;
  sweep.packet_count = options.packet_count;
  sweep.threads = options.threads;
  sweep.collect_counters = options.collect_counters;
  sweep.progress = options.progress;
  sweep.skip = skip;
  if (options.max_configs > 0) {
    sweep.cancel = [&cancelled]() {
      return cancelled.load(std::memory_order_relaxed);
    };
  }
  sweep.on_point = [&](std::size_t index, const SweepPoint& point) {
    std::lock_guard<std::mutex> lock(mutex);
    RowSlot& slot = slots[index];
    slot = {true,
            {index, point.failed, point.error, SerializeSummaryRow(point)}};
    ++completed_new;
    if (options.max_configs > 0 && completed_new >= options.max_configs) {
      cancelled.store(true, std::memory_order_relaxed);
    }
    if (options.checkpoint_path.empty()) return;
    AppendRowRecord(&unsaved, slot.row);
    if (++since_checkpoint >= options.checkpoint_every) {
      since_checkpoint = 0;
      write_checkpoint_locked(/*compact=*/false);
    }
  };

  CampaignResult result;
  result.points = RunSweep(configs, sweep);

  // Fill resumed slots back into the in-memory points (verbatim rows stay
  // authoritative for the CSV; the parsed form serves in-process callers).
  for (std::size_t i = 0; i < configs.size(); ++i) {
    if (skip.empty() || !skip[i]) continue;
    SweepPoint point = ParseSummaryRow(slots[i].row.csv_row);
    point.failed = slots[i].row.failed;
    point.error = slots[i].row.error;
    result.points[i] = std::move(point);
  }

  std::size_t done = 0;
  std::size_t failed = 0;
  for (const auto& slot : slots) {
    if (slot.done) ++done;
    if (slot.done && slot.row.failed) ++failed;
  }

  result.configurations = result.points.size();
  result.configs_failed = failed;
  result.configs_resumed = restored;
  result.checkpoint_records_dropped = checkpoint_dropped;
  result.complete = done == configs.size();
  result.total_packets =
      static_cast<std::uint64_t>(options.packet_count) * done;

  // Final checkpoint, compacted: an interrupted run persists the tail
  // that the last interval missed; a complete run records everything (so
  // re-running with --resume just re-emits the CSV).
  if (!options.checkpoint_path.empty()) {
    std::lock_guard<std::mutex> lock(mutex);
    write_checkpoint_locked(/*compact=*/true);
  }
  result.checkpoint_write_error = checkpoint_error;

  if (options.collect_counters) {
    std::vector<std::vector<trace::CounterSample>> snapshots;
    snapshots.reserve(result.points.size());
    for (const auto& point : result.points) snapshots.push_back(point.counters);
    result.counters = trace::MergeCounters(snapshots);
    trace::AddSample(result.counters, "campaign.configs_failed",
                     static_cast<std::uint64_t>(failed));
  }

  if (result.complete && !options.summary_csv_path.empty()) {
    std::vector<std::string> rows;
    rows.reserve(slots.size());
    for (const auto& slot : slots) rows.push_back(slot.row.csv_row);
    WriteSummaryCsvRows(options.summary_csv_path, rows);

    if (failed > 0) {
      util::CsvWriter errors(options.summary_csv_path + ".errors.csv",
                             {"config_index", "error"});
      for (std::size_t i = 0; i < slots.size(); ++i) {
        if (slots[i].row.failed) {
          errors.WriteRow({std::to_string(i), slots[i].row.error});
        }
      }
      errors.Close();
    }
  }
  return result;
}

}  // namespace wsnlink::experiment
