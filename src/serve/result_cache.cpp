#include "serve/result_cache.h"

#include <cstddef>
#include <optional>
#include <stdexcept>

namespace wsnlink::serve {

namespace {

constexpr std::string_view kVersion1Header = "wsnlink-servecache 1\n";
/// What a version 2 header record starts with, before the tag.
constexpr std::string_view kHeaderPrefix = "wsnlink-servecache 2 version_tag ";

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
    // Every version 1 file was written under the tag wsnlink-serve-v1,
    // which kServeVersionTag has since replaced: discard it unread.
    report.invalidated = true;
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
