#include "experiment/journal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "experiment/checkpoint.h"
#include "util/fault_injection.h"

namespace wsnlink::experiment {

namespace {

/// Bytes the frame adds after a record's body: ' ' + 16 hex digits.
constexpr std::size_t kFrameBytes = 17;

constexpr std::uint64_t kFnvBasis = 0xCBF29CE484222325ULL;  // FNV-1a 64
constexpr std::uint64_t kFnvPrime = 0x100000001B3ULL;

std::uint64_t FnvStep(std::uint64_t hash, char byte) {
  return (hash ^ static_cast<unsigned char>(byte)) * kFnvPrime;
}

/// One record line (LF stripped): its body and the checksum stored after it.
struct Framed {
  std::string_view body;
  std::uint64_t stored = 0;
};

/// Splits a record line into body and stored checksum, or nullopt when the
/// line is not framed as a record.
std::optional<Framed> SplitFrame(std::string_view line) {
  if (line.size() < kFrameBytes || line[line.size() - kFrameBytes] != ' ') {
    return std::nullopt;
  }
  const std::string_view hex = line.substr(line.size() - kFrameBytes + 1);
  Framed framed{line.substr(0, line.size() - kFrameBytes)};
  const auto [ptr, ec] =
      std::from_chars(hex.data(), hex.data() + hex.size(), framed.stored, 16);
  if (ec != std::errc() || ptr != hex.data() + hex.size()) return std::nullopt;
  return framed;
}

/// Data records ScanJournal verifies in one pass.
using Group = std::array<Framed, 4>;

/// CheckpointChecksum of each body in `group`. One FNV-1a chain waits on
/// its multiply at every byte, so four chains share one loop up to the
/// shortest body, and the longer ones finish interleaved.
std::array<std::uint64_t, 4> GroupChecksums(const Group& group) {
  std::size_t common = SIZE_MAX;
  std::size_t longest = 0;
  for (const Framed& framed : group) {
    common = std::min(common, framed.body.size());
    longest = std::max(longest, framed.body.size());
  }
  std::uint64_t h0 = kFnvBasis, h1 = kFnvBasis, h2 = kFnvBasis, h3 = kFnvBasis;
  std::size_t i = 0;
  for (; i < common; ++i) {
    h0 = FnvStep(h0, group[0].body[i]);
    h1 = FnvStep(h1, group[1].body[i]);
    h2 = FnvStep(h2, group[2].body[i]);
    h3 = FnvStep(h3, group[3].body[i]);
  }
  std::array<std::uint64_t, 4> sums{h0, h1, h2, h3};
  for (; i < longest; ++i) {
    for (std::size_t k = 0; k < group.size(); ++k) {
      if (i < group[k].body.size()) sums[k] = FnvStep(sums[k], group[k].body[i]);
    }
  }
  return sums;
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

std::uint64_t CheckpointChecksum(std::string_view bytes) noexcept {
  std::uint64_t hash = kFnvBasis;
  for (const char byte : bytes) hash = FnvStep(hash, byte);
  return hash;
}

JournalScan ScanJournal(std::string_view contents) {
  JournalScan scan;
  // An unterminated first line is a torn header: no header, no records.
  std::size_t pos = contents.find('\n');
  if (pos == std::string_view::npos) return scan;
  const std::optional<Framed> header = SplitFrame(contents.substr(0, pos));
  if (header && CheckpointChecksum(header->body) == header->stored) {
    scan.header = header->body;
  }

  // Data records: framed as they are split, verified a group at a time.
  Group group{};
  std::size_t grouped = 0;
  const auto verify_group = [&] {
    const std::array<std::uint64_t, 4> sums = GroupChecksums(group);
    for (std::size_t k = 0; k < grouped; ++k) {
      if (sums[k] == group[k].stored) {
        scan.records.push_back(group[k].body);
      } else {
        ++scan.dropped;
      }
    }
    group = {};  // a short last group hashes no stale bytes
    grouped = 0;
  };
  // `pos` is at the LF that ends the previous line.
  while (++pos < contents.size()) {
    const std::size_t nl = contents.find('\n', pos);
    // An unterminated last line is a torn append, whatever its bytes.
    if (nl == std::string_view::npos) {
      ++scan.dropped;
      break;
    }
    if (const std::optional<Framed> framed =
            SplitFrame(contents.substr(pos, nl - pos))) {
      group[grouped++] = *framed;
      if (grouped == group.size()) verify_group();
    } else {
      ++scan.dropped;
    }
    pos = nl;
  }
  if (grouped != 0) verify_group();
  return scan;
}

std::optional<std::string> ReadJournalFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  std::optional<std::string> contents;
  struct stat st {};
  if (::fstat(fd, &st) == 0) {
    std::string bytes(static_cast<std::size_t>(st.st_size), '\0');
    std::size_t got = 0;
    while (got < bytes.size()) {
      const ssize_t n = ::read(fd, bytes.data() + got, bytes.size() - got);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) break;
      got += static_cast<std::size_t>(n);
    }
    if (got == bytes.size()) contents = std::move(bytes);
  }
  ::close(fd);
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
