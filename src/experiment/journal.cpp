#include "experiment/journal.h"

#include <charconv>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "experiment/checkpoint.h"
#include "util/fault_injection.h"

namespace wsnlink::experiment {

namespace {

/// Bytes the frame adds after a record's body: ' ' + 16 hex digits.
constexpr std::size_t kFrameBytes = 17;

/// The body of one record line (LF stripped), or nullopt when the line is
/// not a well-framed record whose checksum matches.
std::optional<std::string_view> VerifiedBody(std::string_view line) {
  if (line.size() < kFrameBytes || line[line.size() - kFrameBytes] != ' ') {
    return std::nullopt;
  }
  const std::string_view hex = line.substr(line.size() - kFrameBytes + 1);
  std::uint64_t stored{};
  const auto [ptr, ec] =
      std::from_chars(hex.data(), hex.data() + hex.size(), stored, 16);
  if (ec != std::errc() || ptr != hex.data() + hex.size()) return std::nullopt;
  const std::string_view body = line.substr(0, line.size() - kFrameBytes);
  if (CheckpointChecksum(body) != stored) return std::nullopt;
  return body;
}

/// The "checkpoint.write" fault site: an armed schedule fails the write
/// after its bytes went out, the way a full disk does.
void MaybeInjectWriteFault(std::ofstream& out) {
  auto& injector = util::FaultInjector::Global();
  if (injector.Armed() && injector.ShouldFail("checkpoint.write")) {
    out.setstate(std::ios::failbit);
  }
}

}  // namespace

void FrameRecord(std::string* out, std::size_t body_start) {
  const std::string_view body = std::string_view(*out).substr(body_start);
  char checksum[kFrameBytes + 1];
  std::snprintf(checksum, sizeof(checksum), " %016llx",
                static_cast<unsigned long long>(CheckpointChecksum(body)));
  out->append(checksum, kFrameBytes);
  out->push_back('\n');
}

JournalScan ScanJournal(std::string_view contents) {
  JournalScan scan;
  bool first = true;
  std::size_t pos = 0;
  while (pos < contents.size()) {
    const std::size_t nl = contents.find('\n', pos);
    // An unterminated last line is a torn append, whatever its bytes.
    const std::optional<std::string_view> body =
        nl == std::string_view::npos
            ? std::nullopt
            : VerifiedBody(contents.substr(pos, nl - pos));
    if (first) {
      first = false;
      if (body) scan.header = *body;
    } else if (body) {
      scan.records.push_back(*body);
    } else {
      ++scan.dropped;
    }
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  return scan;
}

std::optional<std::string> ReadJournalFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const std::streamoff size = in.tellg();
  if (size < 0) return std::nullopt;
  std::string contents(static_cast<std::size_t>(size), '\0');
  in.seekg(0);
  in.read(contents.data(), static_cast<std::streamsize>(size));
  if (!in) return std::nullopt;
  return contents;
}

bool JournalWriter::TryAppend(const std::string& path,
                              std::string_view records) {
  std::error_code ec;
  if (path_.empty() || path != path_) return false;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec || size != size_) return false;
  if (records.empty()) return true;

  std::ofstream out(path, std::ios::binary | std::ios::app);
  out.write(records.data(), static_cast<std::streamsize>(records.size()));
  out.flush();
  MaybeInjectWriteFault(out);
  if (!out) {
    out.close();
    path_.clear();
    // Roll the partial append back. If that fails too, the reader drops
    // the torn record, and the next write compacts over it.
    std::filesystem::resize_file(path, size_, ec);
    throw CheckpointError("checkpoint: append failed for " + path +
                          " (disk full or I/O error?)");
  }
  size_ += records.size();
  return true;
}

void JournalWriter::Compact(const std::string& path,
                            std::string_view contents) {
  path_.clear();
  // Atomic publish: a crash (or injected failure) while writing the tmp
  // file leaves any previous file at `path` intact.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw CheckpointError("checkpoint: cannot open " + tmp);
    }
    out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
    out.flush();
    MaybeInjectWriteFault(out);
    if (!out) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw CheckpointError("checkpoint: write failed for " + tmp +
                            " (disk full or I/O error?)");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::error_code remove_ec;
    std::filesystem::remove(tmp, remove_ec);
    throw CheckpointError("checkpoint: cannot rename " + tmp + " to " + path +
                          ": " + ec.message());
  }
  path_ = path;
  size_ = contents.size();
}

void JournalWriter::Adopt(const std::string& path, std::uintmax_t size) {
  path_ = path;
  size_ = size;
}

}  // namespace wsnlink::experiment
