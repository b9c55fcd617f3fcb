// Campaign checkpoint files: crash-safe persistence of completed work.
//
// The paper's dataset took six months of wall clock to measure; our
// synthetic equivalent is a long RunCampaign sweep that, before this
// subsystem, lost every completed configuration on a crash, OOM-kill or
// power cut. A checkpoint records which configuration indices have
// completed and their exact serialized summary rows, plus the seed
// contract they were produced under, so a resumed campaign (a) re-runs
// only the remainder and (b) emits a summary CSV byte-identical to an
// uninterrupted run — rows are stored as the verbatim strings the CSV
// writer would emit, never re-formatted.
//
// File format (version 2): a journal (experiment/journal.h) of
// LF-terminated text records, each ending in " <fnv1a64-hex16 of the
// record's body>":
//
//   wsnlink-checkpoint 2 base_seed <u64> packet_count <int> stride <u64>
//       space_size <u64> config_count <u64> <sum>                (one line)
//   row <index> <ok|failed>\t<error>\t<summary-csv-row> <sum>   (per row)
//
// Row records may come in any order. RunCampaign (campaign.h) appends the
// rows completed since its last write every `checkpoint_every`
// completions, flushed before the write returns. It compacts, atomically
// rewriting the whole file (tmp + rename) with its rows in index order,
// at two points: the final checkpoint of a run, and the first write to a
// file it did not write itself (a fresh or resumed file, or one whose
// last append failed). WriteCheckpoint is that compaction on its own.
//
// The reader verifies every record on its own. A damaged header is a
// CheckpointError. A damaged row record is dropped and counted
// (Checkpoint::dropped): a crash mid-append costs exactly the torn row, a
// flipped byte exactly the row that holds it, and a resume recomputes
// each lost row. Rows come back in index order; two verified rows for one
// index must be byte-identical, since only a determinism bug can make
// them differ, and ReadCheckpoint throws CheckpointError if they are not.
//
// Version 1 files, written before the journal, still load under their own
// rules, so their campaigns resume:
//
//   wsnlink-checkpoint 1
//   base_seed <u64>
//   packet_count <int>
//   stride <u64>
//   space_size <u64>
//   config_count <u64>
//   rows <N>
//   row <index> <ok|failed>\t<error>\t<summary-csv-row>     (N lines)
//   end <fnv1a64-hex of every preceding byte>
//
// The trailing checksum covers the whole file, so any truncation or bit
// rot in a version 1 file is a CheckpointError. Writers only write
// version 2.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace wsnlink::experiment {

/// Any checkpoint I/O or validation failure: missing/unreadable file, bad
/// magic, unsupported version, truncation, checksum mismatch, malformed
/// record, or (at resume) a seed-contract mismatch.
class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& what)
      : std::runtime_error(what) {}
};

inline constexpr int kCheckpointFormatVersion = 2;

/// The reproducibility contract a checkpoint was taken under. Resume
/// refuses to mix checkpoints across contracts: completed rows are only
/// reusable when every seed-relevant knob matches (PR 2's seed-injectivity
/// guarantee keys each config's RNG stream to (base_seed, index)).
struct CheckpointMeta {
  std::uint64_t base_seed = 0;
  int packet_count = 0;
  std::uint64_t stride = 1;
  /// Size of the unsampled configuration space.
  std::uint64_t space_size = 0;
  /// Configurations in the (strided) campaign; row indices are < this.
  std::uint64_t config_count = 0;

  friend bool operator==(const CheckpointMeta&, const CheckpointMeta&) =
      default;
};

/// One completed configuration.
struct CheckpointRow {
  std::uint64_t index = 0;
  bool failed = false;
  /// Structured error message when failed (sanitised to one line).
  std::string error;
  /// The verbatim summary-CSV row (see dataset.h SerializeSummaryRow).
  std::string csv_row;
};

struct Checkpoint {
  CheckpointMeta meta;
  std::vector<CheckpointRow> rows;
  /// Row records ReadCheckpoint dropped because they failed their checksum
  /// or were torn; each one is a configuration a resume recomputes.
  // wsnstatic:transient(dropped): a read-side damage report, never written
  std::size_t dropped = 0;
};

/// Appends the version 2 header record for `meta` to `out`.
void AppendHeaderRecord(std::string* out, const CheckpointMeta& meta);

/// Appends `row` to `out` as one version 2 row record. Control characters
/// in the error become spaces, since the record is one tab-delimited line.
void AppendRowRecord(std::string* out, const CheckpointRow& row);

/// Atomically (tmp + rename) writes `checkpoint` as a compact version 2
/// file: the header, then its rows in the given order. Throws
/// CheckpointError on any I/O failure; the previous file at `path`, if
/// any, is untouched in that case.
void WriteCheckpoint(const std::string& path, const Checkpoint& checkpoint);

/// Reads a version 1 or 2 checkpoint and returns its rows in index order.
/// Throws CheckpointError for a missing or foreign file, an unsupported
/// version, a damaged header, any damage at all in a version 1 file, a
/// malformed verified record, or two different rows for one index.
/// Damaged version 2 row records are dropped and counted instead.
[[nodiscard]] Checkpoint ReadCheckpoint(const std::string& path);

/// FNV-1a 64-bit over `bytes`: the record checksum of both file formats.
[[nodiscard]] std::uint64_t CheckpointChecksum(std::string_view bytes) noexcept;

}  // namespace wsnlink::experiment
