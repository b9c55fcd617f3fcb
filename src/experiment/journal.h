// Append-only record journal: the on-disk form (format version 2) shared
// by campaign checkpoints (experiment/checkpoint.h) and the serve result
// cache (serve/result_cache.h).
//
// A journal file is a sequence of LF-terminated records. The first is the
// header record: the file's magic, its version, and whatever identifies
// the contents (a checkpoint's seed contract, a cache's version tag).
// Every later line is one data record. One framing rule covers them all,
// the header included:
//
//   <body> <fnv1a64-hex16 of body>\n
//
// where <body> is any byte string without an LF. The reader verifies each
// record on its own, so damage costs only the records it touches: a crash
// mid-append tears the last record, a flipped byte breaks the record that
// holds it, and every other record still loads. There is no whole-file
// trailer and no record count, because an append-only file cannot know
// its final length.
//
// JournalWriter makes records durable. It appends a batch to a file it
// left itself, or adopted after a reader verified all of it, and flushes
// it before returning (the data has reached the OS; like the version-1
// writer it never calls fsync). For any other file it refuses, and the
// caller compacts instead: Compact atomically replaces the file (tmp +
// rename) with a fresh header and every live record. Both paths are
// instrumented at the "checkpoint.write" fault-injection site.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace wsnlink::experiment {

/// Frames the tail of `out` from `body_start` on as one journal record by
/// appending its checksum and the LF. Writers append a record's body to
/// `out` in place and then call this. The body must not contain an LF.
void FrameRecord(std::string* out, std::size_t body_start);

/// A journal file's records, each verified on its own. The views point
/// into the scanned contents.
struct JournalScan {
  /// The header record's body; empty when it fails its checksum.
  std::string_view header;
  /// Bodies of the data records whose checksums verify, in file order.
  std::vector<std::string_view> records;
  /// Data records dropped: a checksum that fails, or a last line with no
  /// LF (a torn append).
  std::size_t dropped = 0;
};

/// Splits `contents` into records and verifies each one. Never throws;
/// every body is hashed exactly once. Data records are verified four per
/// pass: four independent FNV-1a chains in one loop, each equal to
/// CheckpointChecksum of its body, since one chain waits on its multiply
/// at every byte.
[[nodiscard]] JournalScan ScanJournal(std::string_view contents);

/// The whole file at `path`, read with one read(2) into a string sized by
/// fstat(2), or nullopt when it cannot be opened or read.
[[nodiscard]] std::optional<std::string> ReadJournalFile(
    const std::string& path);

/// Writes one journal file at a time. Not thread-safe: callers serialize.
class JournalWriter {
 public:
  /// Appends `records` (framed with FrameRecord) to `path` and flushes
  /// them, but only when this writer left `path` itself: same path, same
  /// size, no failed write since. Returns false without touching the file
  /// otherwise; the caller must Compact. Throws CheckpointError when the
  /// append fails; the writer then truncates the file back to its last
  /// good length where it can (a torn record left behind costs only
  /// itself) and refuses to append again until a Compact succeeds.
  [[nodiscard]] bool TryAppend(const std::string& path,
                               std::string_view records);

  /// Atomically (tmp + rename) replaces `path` with `contents`: a header
  /// record and then data records. Throws CheckpointError on failure; the
  /// previous file, if any, is left intact and the tmp file is removed.
  void Compact(const std::string& path, std::string_view contents);

  /// Takes `path`, now `size` bytes long, as a file this writer left
  /// intact, so TryAppend appends to it. For a reader that has just
  /// verified every record of the file and kept them all.
  void Adopt(const std::string& path, std::uintmax_t size);

 private:
  /// The file this writer last left intact (empty: none) and its size.
  std::string path_;
  std::uintmax_t size_ = 0;
};

}  // namespace wsnlink::experiment
