#include "serve/result_cache.h"

#include <cstddef>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <vector>

#include "experiment/checkpoint.h"

namespace wsnlink::serve {

namespace {

constexpr std::string_view kVersion1Header = "wsnlink-servecache 1\n";
/// What a version 2 header record starts with, before the tag.
constexpr std::string_view kHeaderPrefix = "wsnlink-servecache 2 version_tag ";

std::string HashHex(std::string_view bytes) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(
                    experiment::CheckpointChecksum(bytes)));
  return buf;
}

void AppendHeaderRecord(std::string* out, std::string_view version_tag) {
  const std::size_t start = out->size();
  *out += kHeaderPrefix;
  *out += version_tag;
  experiment::FrameRecord(out, start);
}

void AppendEntryRecord(std::string* out, std::string_view key,
                       std::string_view payload) {
  const std::size_t start = out->size();
  *out += "entry ";
  *out += key;
  *out += ' ';
  *out += payload;
  experiment::FrameRecord(out, start);
}

/// Splits a verified `entry <key> <payload>` record body. Returns false
/// when the body is not one.
bool SplitEntryRecord(std::string_view body, std::string_view* key,
                      std::string_view* payload) {
  constexpr std::string_view kPrefix = "entry ";
  if (body.substr(0, kPrefix.size()) != kPrefix) return false;
  body.remove_prefix(kPrefix.size());
  const std::size_t sp = body.find(' ');
  if (sp == 0 || sp == std::string_view::npos || sp + 1 == body.size()) {
    return false;
  }
  *key = body.substr(0, sp);
  *payload = body.substr(sp + 1);
  return true;
}

// --- version 1 -------------------------------------------------------------

std::vector<std::string_view> SplitLines(std::string_view text) {
  std::vector<std::string_view> lines;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) {
      lines.push_back(text.substr(pos));
      break;
    }
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return lines;
}

/// Parses one version 1 `entry <keyhash> <payloadsum> <key> <payload>`
/// line and verifies both checksums. Returns false on any damage.
bool ParseVersion1EntryLine(std::string_view line, std::string* key,
                            std::string* payload) {
  constexpr std::string_view kPrefix = "entry ";
  if (line.substr(0, kPrefix.size()) != kPrefix) return false;
  std::string_view rest = line.substr(kPrefix.size());
  const std::size_t sp1 = rest.find(' ');
  if (sp1 == std::string_view::npos) return false;
  const std::size_t sp2 = rest.find(' ', sp1 + 1);
  if (sp2 == std::string_view::npos) return false;
  const std::size_t sp3 = rest.find(' ', sp2 + 1);
  if (sp3 == std::string_view::npos) return false;
  const std::string_view key_hash = rest.substr(0, sp1);
  const std::string_view payload_sum = rest.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view key_text = rest.substr(sp2 + 1, sp3 - sp2 - 1);
  const std::string_view payload_text = rest.substr(sp3 + 1);
  if (key_text.empty() || payload_text.empty()) return false;
  if (HashHex(key_text) != key_hash) return false;
  if (HashHex(payload_text) != payload_sum) return false;
  *key = std::string(key_text);
  *payload = std::string(payload_text);
  return true;
}

/// Loads a version 1 file into `loaded` under its own rules: a file whose
/// whole-file checksum verifies is parsed strictly; one that fails it
/// drops to per-entry salvage.
void LoadVersion1(std::string_view contents, const std::string& path,
                  const std::string& version_tag,
                  std::map<std::string, std::string>* loaded,
                  CacheLoadReport* report) {
  std::string_view body;
  bool strict = true;
  try {
    body = experiment::VerifyChecksummedBody(contents, path);
  } catch (const experiment::CheckpointError&) {
    // Whole-file checksum failed: salvage every entry line that verifies
    // on its own. A flipped byte costs one entry, not the cache.
    body = contents;
    strict = false;
    report->salvaged = true;
  }

  const auto lines = SplitLines(body);
  // The version_tag line must be intact even in salvage mode — without a
  // trustworthy tag the entries cannot be attributed to a code version, so
  // the only safe answer is a cold start.
  constexpr std::string_view kTagPrefix = "version_tag ";
  if (lines.size() < 2 ||
      lines[1].substr(0, kTagPrefix.size()) != kTagPrefix) {
    report->corrupt_dropped = lines.size();
    return;
  }
  if (lines[1].substr(kTagPrefix.size()) != version_tag) {
    // Different code version: every persisted answer is suspect. Discard.
    report->invalidated = true;
    return;
  }

  std::size_t dropped = 0;
  std::size_t declared = 0;
  bool have_declared = false;
  for (std::size_t i = 2; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    if (line.empty()) continue;
    // The checksum trailer reaches this loop in salvage mode only; it is
    // not a damaged entry.
    if (line.substr(0, 4) == "end ") continue;
    constexpr std::string_view kEntries = "entries ";
    if (line.substr(0, kEntries.size()) == kEntries && !have_declared) {
      have_declared = true;
      // Advisory in salvage mode; strict mode re-checks below.
      for (const char ch : line.substr(kEntries.size())) {
        if (ch < '0' || ch > '9') {
          have_declared = false;
          break;
        }
        declared = declared * 10 + static_cast<std::size_t>(ch - '0');
      }
      continue;
    }
    std::string key;
    std::string payload;
    if (ParseVersion1EntryLine(line, &key, &payload)) {
      loaded->emplace(std::move(key), std::move(payload));
    } else {
      ++dropped;
    }
  }
  if (strict &&
      (!have_declared || declared != loaded->size() || dropped != 0)) {
    // A verified file must parse perfectly; anything else is a format bug
    // or in-memory damage. Degrade to what did parse and report the rest.
    dropped += declared > loaded->size() ? declared - loaded->size() : 0;
    report->salvaged = true;
  }
  report->corrupt_dropped = dropped;
}

}  // namespace

ResultCache::ResultCache(std::string version_tag, std::size_t max_entries)
    : version_tag_(std::move(version_tag)), max_entries_(max_entries) {
  if (version_tag_.empty() ||
      version_tag_.find_first_of(" \t\n\r") != std::string::npos) {
    throw std::invalid_argument(
        "ResultCache: version tag must be non-empty and whitespace-free");
  }
}

std::size_t ResultCache::EvictOverCapLocked() {
  std::size_t evicted = 0;
  while (max_entries_ != 0 && entries_.size() > max_entries_) {
    // insertion_order_ and entries_ always hold the same key set, so the
    // front key is present by construction. The unsaved entries are the
    // newest, so the oldest is unsaved only when all of them are.
    if (unsaved_ == insertion_order_.size()) {
      --unsaved_;
    } else {
      ++evicted_from_file_;
    }
    entries_.erase(insertion_order_.front());
    insertion_order_.pop_front();
    ++evicted;
  }
  evictions_ += evicted;
  return evicted;
}

std::string ResultCache::Lookup(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  return it == entries_.end() ? std::string() : it->second;
}

void ResultCache::Store(const std::string& key, const std::string& payload) {
  if (key.empty() || key.find_first_of(" \t\n\r") != std::string::npos) {
    throw std::invalid_argument(
        "ResultCache: keys must be non-empty and whitespace-free");
  }
  if (payload.empty() ||
      payload.find_first_of("\n\r") != std::string::npos) {
    throw std::invalid_argument(
        "ResultCache: payloads must be non-empty single lines");
  }
  const std::lock_guard<std::mutex> lock(mutex_);
  const bool inserted = entries_.emplace(key, payload).second;
  // A duplicate store is a no-op that must not refresh the entry's FIFO
  // position — eviction order is pure insertion order, never recency.
  if (!inserted) return;
  insertion_order_.push_back(key);
  ++unsaved_;
  (void)EvictOverCapLocked();
}

std::size_t ResultCache::Size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t ResultCache::Evictions() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

// wsnstatic:serdes(ResultCache, Save, Load): persistent-cache contract; every persisted field must survive a save/load cycle
void ResultCache::Save(const std::string& path) {
  const std::lock_guard<std::mutex> save_lock(save_mutex_);
  std::string records;
  std::size_t appended = 0;
  bool compact = false;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    // Compact once evicted entries make up most of the file.
    compact = evicted_from_file_ * 2 > file_records_;
    if (!compact) {
      for (auto it = insertion_order_.end() -
                     static_cast<std::ptrdiff_t>(unsaved_);
           it != insertion_order_.end(); ++it) {
        AppendEntryRecord(&records, *it, entries_.find(*it)->second);
      }
      appended = unsaved_;
      unsaved_ = 0;
    }
  }
  if (!compact && journal_.TryAppend(path, records)) {
    file_records_ += appended;
    return;
  }

  std::string file;
  std::size_t count = 0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    file.reserve(128 + entries_.size() * 256);
    AppendHeaderRecord(&file, version_tag_);
    // std::map iteration: entries serialize in key order, so the same
    // cache contents always compact to the same bytes.
    for (const auto& [key, payload] : entries_) {
      AppendEntryRecord(&file, key, payload);
    }
    count = entries_.size();
    unsaved_ = 0;
    evicted_from_file_ = 0;
  }
  journal_.Compact(path, file);
  file_records_ = count;
}

CacheLoadReport ResultCache::Load(const std::string& path) {
  CacheLoadReport report;
  std::map<std::string, std::string> loaded;
  const std::optional<std::string> contents = experiment::ReadJournalFile(path);
  if (!contents) {
    report.missing = true;
  } else if (std::string_view(*contents).substr(0, kVersion1Header.size()) ==
             kVersion1Header) {
    LoadVersion1(*contents, path, version_tag_, &loaded, &report);
  } else {
    const experiment::JournalScan scan = experiment::ScanJournal(*contents);
    if (scan.header.substr(0, kHeaderPrefix.size()) != kHeaderPrefix) {
      // A damaged header: without a trustworthy tag the entries cannot be
      // attributed to a code version, so the only safe answer is a cold
      // start.
      report.corrupt_dropped = scan.records.size() + scan.dropped;
    } else if (scan.header.substr(kHeaderPrefix.size()) != version_tag_) {
      // Different code version: every persisted answer is suspect.
      report.invalidated = true;
    } else {
      std::size_t dropped = scan.dropped;
      for (const std::string_view record : scan.records) {
        std::string_view key;
        std::string_view payload;
        if (SplitEntryRecord(record, &key, &payload)) {
          loaded.try_emplace(std::string(key), payload);
        } else {
          ++dropped;
        }
      }
      report.corrupt_dropped = dropped;
      report.salvaged = dropped > 0;
    }
  }

  const std::lock_guard<std::mutex> save_lock(save_mutex_);
  const std::lock_guard<std::mutex> lock(mutex_);
  entries_ = std::move(loaded);
  // Re-anchor the FIFO to key order so capping a loaded cache keeps the
  // *last* max_entries keys no matter which daemon wrote the file, or in
  // which order its records were appended.
  insertion_order_.clear();
  for (const auto& [key, payload] : entries_) {
    insertion_order_.push_back(key);
  }
  unsaved_ = 0;
  evicted_from_file_ = 0;
  // A fresh writer: the first Save after a Load compacts.
  journal_ = experiment::JournalWriter();
  file_records_ = 0;
  report.cap_evicted = EvictOverCapLocked();
  report.loaded = entries_.size();
  return report;
}

}  // namespace wsnlink::serve
