#include "experiment/checkpoint.h"

#include <algorithm>
#include <charconv>
#include <optional>

#include "experiment/journal.h"

namespace wsnlink::experiment {

namespace {

constexpr std::string_view kMagic = "wsnlink-checkpoint";
/// What a version 2 header record starts with, before the meta fields.
constexpr std::string_view kHeaderPrefix = "wsnlink-checkpoint 2 ";

std::uint64_t ParseU64(std::string_view text, const char* what) {
  std::uint64_t v{};
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(),
                                         v);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw CheckpointError(std::string("checkpoint: bad ") + what + " '" +
                          std::string(text) + "'");
  }
  return v;
}

/// Expects "<key> <value>" and returns the value.
std::string_view ExpectKeyLine(std::string_view line, std::string_view key) {
  if (line.substr(0, key.size()) != key || line.size() <= key.size() ||
      line[key.size()] != ' ') {
    throw CheckpointError("checkpoint: expected '" + std::string(key) +
                          " <value>' line, got '" + std::string(line) + "'");
  }
  return line.substr(key.size() + 1);
}

/// Consumes "<key> <value>" from the front of `fields`, where pairs are
/// separated by a space (a version 2 header) or an LF (the version 1
/// header lines), and returns the value.
std::string_view TakeField(std::string_view* fields, std::string_view key) {
  const std::size_t end = fields->find_first_of(" \n", key.size() + 1);
  const std::string_view value = ExpectKeyLine(fields->substr(0, end), key);
  fields->remove_prefix(end == std::string_view::npos ? fields->size()
                                                      : end + 1);
  return value;
}

// wsnstatic:serdes(CheckpointMeta, AppendHeaderRecord, ParseMetaFields): sweep-identity header; a dropped field silently resumes the wrong sweep
CheckpointMeta ParseMetaFields(std::string_view fields) {
  CheckpointMeta meta;
  meta.base_seed = ParseU64(TakeField(&fields, "base_seed"), "base_seed");
  meta.packet_count = static_cast<int>(
      ParseU64(TakeField(&fields, "packet_count"), "packet_count"));
  meta.stride = ParseU64(TakeField(&fields, "stride"), "stride");
  meta.space_size = ParseU64(TakeField(&fields, "space_size"), "space_size");
  meta.config_count =
      ParseU64(TakeField(&fields, "config_count"), "config_count");
  if (!fields.empty()) {
    throw CheckpointError("checkpoint: unexpected header field '" +
                          std::string(fields) + "'");
  }
  return meta;
}

// wsnstatic:serdes(CheckpointRow, AppendRowRecord, ParseRowRecord): per-config result row; a dropped field loses completed work on resume
CheckpointRow ParseRowRecord(std::string_view record, const std::string& path) {
  const std::string_view rest = ExpectKeyLine(record, "row");
  const std::size_t sp = rest.find(' ');
  const std::size_t tab1 = rest.find('\t');
  const std::size_t tab2 =
      tab1 == std::string_view::npos ? tab1 : rest.find('\t', tab1 + 1);
  if (sp == std::string_view::npos || tab1 == std::string_view::npos ||
      tab2 == std::string_view::npos || sp > tab1) {
    throw CheckpointError("checkpoint: malformed row record in " + path);
  }
  CheckpointRow row;
  row.index = ParseU64(rest.substr(0, sp), "row index");
  const std::string_view status = rest.substr(sp + 1, tab1 - sp - 1);
  if (status == "ok") {
    row.failed = false;
  } else if (status == "failed") {
    row.failed = true;
  } else {
    throw CheckpointError("checkpoint: unknown row status '" +
                          std::string(status) + "' in " + path);
  }
  row.error = std::string(rest.substr(tab1 + 1, tab2 - tab1 - 1));
  row.csv_row = std::string(rest.substr(tab2 + 1));
  return row;
}

/// Verifies and strips the trailing "end <checksum>" line of a version 1
/// file's contents: returns the checksummed body, throws CheckpointError
/// naming `path` on truncation, append damage, a malformed checksum line or
/// a checksum mismatch.
std::string_view VerifyChecksummedBody(std::string_view contents,
                                       const std::string& path) {
  // The `end <checksum>` line must be the final line; anything after it
  // (or a missing/short final line) means truncation or append damage.
  if (contents.empty() || contents.back() != '\n') {
    throw CheckpointError("checkpoint: truncated file " + path);
  }
  const std::size_t end_line_start = contents.rfind('\n', contents.size() - 2);
  const std::size_t body_size =
      end_line_start == std::string_view::npos ? 0 : end_line_start + 1;
  const std::string_view end_line =
      contents.substr(body_size, contents.size() - body_size - 1);
  if (end_line.substr(0, 4) != "end ") {
    throw CheckpointError("checkpoint: missing end line in " + path +
                          " (truncated write?)");
  }
  const std::string_view hex = end_line.substr(4);
  std::uint64_t stored{};
  const auto [hex_ptr, hex_ec] =
      std::from_chars(hex.data(), hex.data() + hex.size(), stored, 16);
  if (hex_ec != std::errc() || hex_ptr != hex.data() + hex.size()) {
    throw CheckpointError("checkpoint: malformed checksum in " + path);
  }
  const std::string_view body = contents.substr(0, body_size);
  if (CheckpointChecksum(body) != stored) {
    throw CheckpointError("checkpoint: checksum mismatch in " + path +
                          " (corrupt or tampered file)");
  }
  return body;
}

/// A version 1 file: one checksum over the whole file, so any damage
/// rejects it.
Checkpoint ReadVersion1(std::string_view contents, const std::string& path) {
  const std::string_view body = VerifyChecksummedBody(contents, path);
  std::vector<std::string_view> lines;
  std::size_t pos = 0;
  while (pos < body.size()) {
    const std::size_t nl = body.find('\n', pos);
    lines.push_back(body.substr(pos, nl - pos));
    pos = nl + 1;
  }
  if (lines.size() < 7) {
    throw CheckpointError("checkpoint: header incomplete in " + path);
  }
  Checkpoint checkpoint;
  // Lines 1-5 hold the meta fields, one "<key> <value>" pair per line.
  checkpoint.meta = ParseMetaFields(std::string_view(
      lines[1].data(), lines[5].data() + lines[5].size() - lines[1].data()));
  const std::uint64_t row_count =
      ParseU64(ExpectKeyLine(lines[6], "rows"), "rows");
  if (lines.size() != 7 + row_count) {
    throw CheckpointError(
        "checkpoint: row count mismatch in " + path + " (header says " +
        std::to_string(row_count) + ", file has " +
        std::to_string(lines.size() - 7) + ")");
  }
  checkpoint.rows.reserve(row_count);
  for (std::size_t r = 7; r < lines.size(); ++r) {
    checkpoint.rows.push_back(ParseRowRecord(lines[r], path));
  }
  return checkpoint;
}

/// A version 2 journal: every record verified on its own.
Checkpoint ReadVersion2(std::string_view contents, const std::string& path) {
  const JournalScan scan = ScanJournal(contents);
  if (scan.header.empty()) {
    throw CheckpointError("checkpoint: header record checksum mismatch in " +
                          path + " (corrupt file)");
  }
  if (scan.header.substr(0, kHeaderPrefix.size()) != kHeaderPrefix) {
    throw CheckpointError("checkpoint: malformed header record in " + path);
  }
  Checkpoint checkpoint;
  checkpoint.meta = ParseMetaFields(scan.header.substr(kHeaderPrefix.size()));
  checkpoint.rows.reserve(scan.records.size());
  for (const std::string_view record : scan.records) {
    checkpoint.rows.push_back(ParseRowRecord(record, path));
  }
  checkpoint.dropped = scan.dropped;
  return checkpoint;
}

}  // namespace

std::uint64_t CheckpointChecksum(std::string_view bytes) noexcept {
  std::uint64_t hash = 0xCBF29CE484222325ULL;  // FNV-1a 64 offset basis
  for (const unsigned char ch : bytes) {
    hash ^= ch;
    hash *= 0x100000001B3ULL;  // FNV prime
  }
  return hash;
}

void AppendHeaderRecord(std::string* out, const CheckpointMeta& meta) {
  const std::size_t start = out->size();
  *out += kHeaderPrefix;
  *out += "base_seed " + std::to_string(meta.base_seed);
  *out += " packet_count " + std::to_string(meta.packet_count);
  *out += " stride " + std::to_string(meta.stride);
  *out += " space_size " + std::to_string(meta.space_size);
  *out += " config_count " + std::to_string(meta.config_count);
  FrameRecord(out, start);
}

void AppendRowRecord(std::string* out, const CheckpointRow& row) {
  const std::size_t start = out->size();
  *out += "row ";
  *out += std::to_string(row.index);
  *out += row.failed ? " failed\t" : " ok\t";
  for (const char ch : row.error) {
    out->push_back(ch == '\t' || ch == '\n' || ch == '\r' ? ' ' : ch);
  }
  *out += '\t';
  *out += row.csv_row;
  FrameRecord(out, start);
}

// wsnstatic:serdes(Checkpoint, WriteCheckpoint, ReadCheckpoint): resume-file contract; every field must survive a write/read cycle
void WriteCheckpoint(const std::string& path, const Checkpoint& checkpoint) {
  std::string file;
  file.reserve(256 + checkpoint.rows.size() * 224);
  AppendHeaderRecord(&file, checkpoint.meta);
  for (const auto& row : checkpoint.rows) AppendRowRecord(&file, row);
  JournalWriter().Compact(path, file);
}

Checkpoint ReadCheckpoint(const std::string& path) {
  const std::optional<std::string> contents = ReadJournalFile(path);
  if (!contents) {
    throw CheckpointError("checkpoint: cannot open " + path);
  }
  // Magic and version come first, so a foreign file or a version this
  // build cannot read is named as such before any checksum is checked.
  const std::string_view first =
      std::string_view(*contents).substr(0, contents->find('\n'));
  if (first.substr(0, kMagic.size()) != kMagic ||
      first.substr(kMagic.size(), 1) != " ") {
    throw CheckpointError("checkpoint: " + path +
                          " is not a wsnlink checkpoint file");
  }
  const std::size_t version_start = kMagic.size() + 1;
  const std::string_view version_text = first.substr(
      version_start, first.find(' ', version_start) - version_start);
  const std::uint64_t version = ParseU64(version_text, "version");
  Checkpoint checkpoint;
  if (version == 1) {
    checkpoint = ReadVersion1(*contents, path);
  } else if (version == static_cast<std::uint64_t>(kCheckpointFormatVersion)) {
    checkpoint = ReadVersion2(*contents, path);
  } else {
    throw CheckpointError(
        "checkpoint: unsupported version " + std::to_string(version) + " in " +
        path + " (this build reads versions 1 and " +
        std::to_string(kCheckpointFormatVersion) + ")");
  }

  auto& rows = checkpoint.rows;
  for (const CheckpointRow& row : rows) {
    if (row.index >= checkpoint.meta.config_count) {
      throw CheckpointError("checkpoint: row index " +
                            std::to_string(row.index) + " out of range in " +
                            path);
    }
  }
  // Appends arrive in completion order; callers get index order, with a
  // row that was journaled twice (identical bytes) kept once.
  std::sort(rows.begin(), rows.end(),
            [](const CheckpointRow& a, const CheckpointRow& b) {
              return a.index < b.index;
            });
  const auto same_index = [&path](const CheckpointRow& a,
                                  const CheckpointRow& b) {
    if (a.index != b.index) return false;
    if (a.failed != b.failed || a.error != b.error || a.csv_row != b.csv_row) {
      throw CheckpointError("checkpoint: two different rows for index " +
                            std::to_string(a.index) + " in " + path +
                            " (nondeterministic campaign?)");
    }
    return true;
  };
  rows.erase(std::unique(rows.begin(), rows.end(), same_index), rows.end());
  return checkpoint;
}

}  // namespace wsnlink::experiment
