// Content-addressed, persistent result store for the tuning service.
//
// Every answer wsnlinkd produces is a pure function of its canonical
// request key (config, channel spec, seed contract, code-version tag — see
// protocol.h CanonicalKey), so results are perfectly cacheable: fleet-scale
// repeat traffic degenerates to lookups, and a restarted daemon warms from
// disk instead of recomputing months of answers.
//
// Addressing: entries are stored and looked up by the full canonical key
// string, so no two requests can share an answer.
//
// Persistence is the append-only journal campaign checkpoints use
// (experiment/journal.h, format version 2), so the cache also shares the
// "checkpoint.write" fault-injection site and its torn-write drills:
//
//   wsnlink-servecache 2 version_tag <tag> <sum>
//   entry <key> <payload> <sum>                   (one per entry, any order)
//
// where <sum> is the FNV-1a hex16 of the record's body, which covers the
// entry's key and payload. Save appends the entries stored since the last
// Save as one flushed batch, so a persist costs one record per new entry
// rather than a rewrite of the cache. It compacts instead, rewriting the
// file atomically (tmp + rename) with the live entries in key order, on
// the first Save of a ResultCache after construction or Load, after a
// failed write, and once the entries the FIFO cap has evicted since the
// last compaction exceed half of the file's records.
//
// Load verifies each record on its own and hashes each record's bytes
// once: every entry whose record verifies is kept, damaged or torn records
// are counted and dropped. One flipped byte therefore costs exactly the
// damaged entry (a recompute), never the cache and never a corrupt answer.
// A damaged header means a cold start, and a version-tag mismatch discards
// the whole file (the invalidation rule: old answers may be wrong under
// new code).
//
// A version 1 file (first line `wsnlink-servecache 1`, written before the
// journal under the tag wsnlink-serve-v1) is reported invalidated without
// being parsed.
//
// Bounding: an optional entry cap turns the cache into a FIFO — when a
// Store would exceed the cap, the oldest-inserted entries are evicted
// first. Eviction is deterministic (pure insertion order, never recency or
// wall clock: a duplicate Store does not refresh an entry's position), so
// two daemons fed the same request sequence hold the same entries. After a
// Load, insertion order is re-anchored to key order, which keeps load-time
// capping deterministic too. A compacted file holds exactly the live
// entries in key order, so a capped cache compacts to the same bytes as
// an uncapped cache holding exactly the surviving set. Between compactions
// the file may still hold entries the cap evicted; every entry is a pure
// function of its key, so warm-started answers stay byte-identical.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>

#include "experiment/journal.h"

namespace wsnlink::serve {

/// Outcome of warming a cache from disk.
struct CacheLoadReport {
  /// Entries accepted into memory.
  std::size_t loaded = 0;
  /// Entry records dropped as damaged (bad checksum, torn, or malformed).
  std::size_t corrupt_dropped = 0;
  /// True when the file carried a different version tag, or was a
  /// version 1 file, and was discarded.
  bool invalidated = false;
  /// True when no file existed (a cold start, not an error).
  bool missing = false;
  /// True when damaged records were dropped.
  bool salvaged = false;
  /// Intact entries evicted at load time because the file held more than
  /// the cache's entry cap (kept: the last `max_entries` in key order).
  std::size_t cap_evicted = 0;
};

/// Thread-safe in-memory map + journal persistence.
class ResultCache {
 public:
  /// `version_tag` is stamped into the file header and checked at Load.
  /// `max_entries` bounds the cache (0 = unbounded): once full, each new
  /// Store evicts the oldest-inserted entry (deterministic FIFO — see the
  /// file comment).
  explicit ResultCache(std::string version_tag, std::size_t max_entries = 0);

  /// Returns the payload stored under `key`, or empty if absent. (Payloads
  /// are never empty: an empty string unambiguously means miss.)
  [[nodiscard]] std::string Lookup(const std::string& key) const;

  /// Stores `payload` under `key` (first writer wins; a duplicate store of
  /// the same key is a no-op — answers are pure functions of the key, so
  /// both writers hold identical bytes). Rejects empty payloads and keys
  /// containing whitespace/control bytes (the file format is line-based).
  void Store(const std::string& key, const std::string& payload);

  [[nodiscard]] std::size_t Size() const;

  /// Entries evicted by the cap so far (Store-time and Load-time alike).
  [[nodiscard]] std::uint64_t Evictions() const;

  /// Makes every entry durable at `path`: appends the entries stored
  /// since the last Save, or compacts (see the file comment). Throws
  /// experiment::CheckpointError on failure (injected or real); every
  /// record written before stays loadable, and the next Save compacts.
  void Save(const std::string& path);

  /// Warms the cache from `path`, replacing the in-memory contents. Never
  /// throws on corruption: damaged state degrades to fewer warm entries
  /// (see the report), because a cache can always be rebuilt by
  /// recomputing.
  CacheLoadReport Load(const std::string& path);

 private:
  /// Drops oldest-inserted entries until the cap holds. Caller holds
  /// mutex_. Returns how many entries were evicted.
  std::size_t EvictOverCapLocked();

  std::string version_tag_;
  const std::size_t max_entries_;
  /// Guards `entries_` through `evictions_`.
  mutable std::mutex mutex_;
  std::map<std::string, std::string> entries_;
  /// Keys in insertion order, oldest first; rebuilt (in key order) by Load.
  /// Its last `unsaved_` keys are the entries the next append writes.
  std::deque<std::string> insertion_order_;
  std::size_t unsaved_ = 0;
  /// Entries evicted since the last compaction that were in the file.
  std::size_t evicted_from_file_ = 0;
  // wsnstatic:transient(evictions_): process-lifetime telemetry, deliberately reset by a reload
  std::uint64_t evictions_ = 0;

  /// Serializes Save and Load; guards the journal state below.
  std::mutex save_mutex_;
  experiment::JournalWriter journal_;
  /// Entry records in the file journal_ left: compacted plus appended.
  std::size_t file_records_ = 0;
};

}  // namespace wsnlink::serve
