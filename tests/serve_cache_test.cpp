// Cache integrity drills for the tuning service's persistent result store.
//
// The contract under test (docs/SERVING.md):
//  * round trip: Save then Load restores every entry byte-exactly;
//  * damage containment: one flipped byte or a torn append costs exactly
//    the damaged entry (a recompute), never the whole cache and never a
//    corrupt answer;
//  * appends: after its first Save a cache appends one record per new
//    entry to the same file, and compacts only when it must;
//  * torn writes: the cache persists through the same instrumented
//    journal writer as campaign checkpoints ("checkpoint.write" fault
//    site), so an injected failure leaves every earlier record loadable;
//  * invalidation: a version-tag mismatch discards the file wholesale, and
//    a version 1 file is discarded unread;
//  * warm start: a restarted QueryService answers from disk with the
//    exact bytes the cold computation produced.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "experiment/checkpoint.h"
#include "experiment/journal.h"
#include "serve/protocol.h"
#include "serve/query_service.h"
#include "serve/result_cache.h"
#include "util/fault_injection.h"

namespace wsnlink {
namespace {

using serve::CacheLoadReport;
using serve::QueryService;
using serve::ResultCache;
using serve::ServiceOptions;

constexpr const char* kTag = "wsnlink-servecache-test-v1";

std::string TempPath(const char* name) {
  return testing::TempDir() + "/wsnlink_" + name + ".cache";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  out << contents;
}

// ResultCache owns a mutex (immovable), so helpers fill one in place.
void FillEntries(ResultCache& cache, int count) {
  for (int i = 0; i < count; ++i) {
    cache.Store("key|" + std::to_string(i),
                "{\"status\":\"ok\",\"value\":" + std::to_string(i * 10) +
                    "}");
  }
}

void SaveCacheWithEntries(int count, const std::string& path) {
  ResultCache cache(kTag);
  FillEntries(cache, count);
  cache.Save(path);
}

std::string EntryKey(int i) { return "key|" + std::to_string(i); }
std::string EntryPayload(int i) {
  return "{\"status\":\"ok\",\"value\":" + std::to_string(i * 10) + "}";
}

/// The framed version 2 record for one entry, as Save appends it.
std::string EntryRecord(const std::string& key, const std::string& payload) {
  std::string record = "entry " + key + " " + payload;
  experiment::FrameRecord(&record, 0);
  return record;
}

/// Inode of `path`: an append keeps it, a tmp+rename compaction changes it.
ino_t Inode(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return st.st_ino;
}

/// A cache file holding entries 0..3 from a compaction, then entries 4..7
/// appended one Save at a time, the way a daemon with persist_every 1
/// leaves it.
std::string SaveJournaledCache(const std::string& path) {
  std::remove(path.c_str());
  ResultCache cache(kTag);
  FillEntries(cache, 4);
  cache.Save(path);
  for (int i = 4; i < 8; ++i) {
    cache.Store(EntryKey(i), EntryPayload(i));
    cache.Save(path);
  }
  return ReadFile(path);
}

TEST(ServeCache, SaveLoadRoundTripIsExact) {
  const std::string path = TempPath("roundtrip");
  SaveCacheWithEntries(5, path);
  ResultCache loaded(kTag);
  const CacheLoadReport report = loaded.Load(path);
  EXPECT_EQ(report.loaded, 5u);
  EXPECT_EQ(report.corrupt_dropped, 0u);
  EXPECT_FALSE(report.salvaged);
  EXPECT_FALSE(report.invalidated);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(loaded.Lookup("key|" + std::to_string(i)),
              "{\"status\":\"ok\",\"value\":" + std::to_string(i * 10) + "}");
  }
  std::remove(path.c_str());
}

TEST(ServeCache, MissingFileIsColdStartNotError) {
  ResultCache cache(kTag);
  const CacheLoadReport report = cache.Load(TempPath("does_not_exist"));
  EXPECT_TRUE(report.missing);
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_EQ(cache.Size(), 0u);
}

TEST(ServeCache, SingleFlippedByteDropsOnlyTheDamagedEntry) {
  const std::string path = TempPath("byteflip");
  SaveCacheWithEntries(4, path);

  std::string contents = ReadFile(path);
  // Flip one byte inside entry 2's payload ("value\":20" -> "value\":2z").
  const std::size_t pos = contents.find("\"value\":20");
  ASSERT_NE(pos, std::string::npos);
  contents[pos + 9] = 'z';
  WriteFile(path, contents);

  ResultCache loaded(kTag);
  const CacheLoadReport report = loaded.Load(path);
  EXPECT_TRUE(report.salvaged);  // the damaged record was dropped
  EXPECT_EQ(report.loaded, 3u);
  EXPECT_EQ(report.corrupt_dropped, 1u);

  // Undamaged entries answer; the damaged one is a miss (a recompute),
  // never a corrupt payload.
  EXPECT_EQ(loaded.Lookup("key|2"), "");
  EXPECT_EQ(loaded.Lookup("key|0"), "{\"status\":\"ok\",\"value\":0}");
  EXPECT_EQ(loaded.Lookup("key|3"), "{\"status\":\"ok\",\"value\":30}");
  std::remove(path.c_str());
}

TEST(ServeCache, TruncatedTailSalvagesVerifyingEntries) {
  const std::string path = TempPath("truncated");
  SaveCacheWithEntries(4, path);

  std::string contents = ReadFile(path);
  // Chop mid-way through the last entry line (simulates a torn append on
  // a filesystem without the atomic rename).
  contents.resize(contents.rfind("entry ") + 10);
  WriteFile(path, contents);

  ResultCache loaded(kTag);
  const CacheLoadReport report = loaded.Load(path);
  EXPECT_TRUE(report.salvaged);
  EXPECT_EQ(report.loaded, 3u);
  EXPECT_GE(report.corrupt_dropped, 1u);
  EXPECT_EQ(loaded.Lookup("key|0"), "{\"status\":\"ok\",\"value\":0}");
  std::remove(path.c_str());
}

TEST(ServeCache, VersionTagMismatchDiscardsWholeFile) {
  const std::string path = TempPath("invalidate");
  SaveCacheWithEntries(3, path);

  ResultCache newer("wsnlink-servecache-test-v2");
  const CacheLoadReport report = newer.Load(path);
  EXPECT_TRUE(report.invalidated);
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_EQ(newer.Size(), 0u);
  std::remove(path.c_str());
}

TEST(ServeCache, DamagedHeaderMeansColdStart) {
  const std::string path = TempPath("badheader");
  SaveCacheWithEntries(3, path);
  std::string contents = ReadFile(path);
  contents[0] = 'X';  // break the magic
  WriteFile(path, contents);

  ResultCache loaded(kTag);
  const CacheLoadReport report = loaded.Load(path);
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_EQ(loaded.Size(), 0u);
  std::remove(path.c_str());
}

TEST(ServeCache, TornAppendLosesOnlyTheTornRecord) {
  const std::string path = TempPath("tornappend");
  const std::string contents = SaveJournaledCache(path);
  const std::size_t last_start = contents.rfind('\n', contents.size() - 2) + 1;

  // Every cut that leaves part of the last appended record behind (a
  // crash mid-append) drops exactly that entry.
  for (std::size_t cut = 1; cut < contents.size() - last_start; ++cut) {
    WriteFile(path, contents.substr(0, contents.size() - cut));
    ResultCache loaded(kTag);
    const CacheLoadReport report = loaded.Load(path);
    EXPECT_EQ(report.loaded, 7u) << "cut " << cut;
    EXPECT_EQ(report.corrupt_dropped, 1u) << "cut " << cut;
    EXPECT_EQ(loaded.Lookup(EntryKey(7)), "");
    EXPECT_EQ(loaded.Lookup(EntryKey(6)), EntryPayload(6));
  }
  std::remove(path.c_str());
}

TEST(ServeCache, FlippedByteInAnAppendedRecordLosesOnlyThatEntry) {
  const std::string path = TempPath("flipappend");
  const std::string contents = SaveJournaledCache(path);
  const std::size_t start = contents.find("entry " + EntryKey(5) + " ");
  const std::size_t end = contents.find('\n', start);
  ASSERT_NE(start, std::string::npos);
  for (std::size_t pos = start; pos < end; ++pos) {
    std::string mutated = contents;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x01);
    WriteFile(path, mutated);
    ResultCache loaded(kTag);
    const CacheLoadReport report = loaded.Load(path);
    EXPECT_EQ(report.loaded, 7u) << "byte " << pos;
    EXPECT_EQ(report.corrupt_dropped, 1u) << "byte " << pos;
    EXPECT_EQ(loaded.Lookup(EntryKey(5)), "");
    EXPECT_EQ(loaded.Lookup(EntryKey(4)), EntryPayload(4));
    EXPECT_EQ(loaded.Lookup(EntryKey(7)), EntryPayload(7));
  }
  std::remove(path.c_str());
}

TEST(ServeCache, CorruptionFuzzNeverYieldsAnEntryThatWasNotWritten) {
  const std::string path = TempPath("fuzz");
  const std::string pristine = SaveJournaledCache(path);
  std::mt19937 rng(20150629);
  std::uniform_int_distribution<std::size_t> pos_dist(0, pristine.size() - 1);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = pristine;
    const int mutations = 1 + static_cast<int>(rng() % 4);
    for (int m = 0; m < mutations && !mutated.empty(); ++m) {
      const std::size_t pos = pos_dist(rng) % mutated.size();
      switch (rng() % 3) {
        case 0:
          mutated[pos] = static_cast<char>(byte_dist(rng));
          break;
        case 1:
          mutated.erase(pos, 1);
          break;
        default:
          mutated.resize(pos);
          break;
      }
    }
    WriteFile(path, mutated);
    ResultCache loaded(kTag);
    const CacheLoadReport report = loaded.Load(path);
    // Every entry that survives is one that was written, byte for byte.
    std::size_t found = 0;
    for (int i = 0; i < 8; ++i) {
      const std::string payload = loaded.Lookup(EntryKey(i));
      if (payload.empty()) continue;
      ++found;
      EXPECT_EQ(payload, EntryPayload(i)) << "trial " << trial;
    }
    EXPECT_EQ(found, report.loaded) << "trial " << trial;
    EXPECT_EQ(loaded.Size(), report.loaded) << "trial " << trial;
  }
  std::remove(path.c_str());
}

TEST(ServeCache, SavesAppendToTheSameFileUntilACompaction) {
  const std::string path = TempPath("appends");
  std::remove(path.c_str());
  ResultCache cache(kTag);
  FillEntries(cache, 3);
  cache.Save(path);  // the first Save of an instance compacts
  const ino_t inode = Inode(path);
  std::string expected = ReadFile(path);

  for (int i = 3; i < 53; ++i) {
    cache.Store(EntryKey(i), EntryPayload(i));
    cache.Save(path);
    expected += EntryRecord(EntryKey(i), EntryPayload(i));
  }
  // 50 saves later: the same inode, grown by exactly the 50 records.
  EXPECT_EQ(Inode(path), inode);
  EXPECT_EQ(ReadFile(path), expected);

  // A Save with nothing new writes nothing.
  cache.Save(path);
  EXPECT_EQ(ReadFile(path), expected);

  // A reloaded cache compacts on its first Save: a new file, in key order.
  ResultCache reloaded(kTag);
  EXPECT_EQ(reloaded.Load(path).loaded, 53u);
  reloaded.Save(path);
  EXPECT_NE(Inode(path), inode);
  const std::string compacted = ReadFile(path);
  ResultCache uncapped(kTag);
  FillEntries(uncapped, 53);
  uncapped.Save(TempPath("appends_ref"));
  EXPECT_EQ(compacted, ReadFile(TempPath("appends_ref")));
  std::remove(path.c_str());
  std::remove(TempPath("appends_ref").c_str());
}

TEST(ServeCache, CapEvictionsCompactOnceTheyAreMostOfTheFile) {
  const std::string path = TempPath("evictcompact");
  std::remove(path.c_str());
  ResultCache cache(kTag, /*max_entries=*/4);
  FillEntries(cache, 4);
  cache.Save(path);  // compaction: 4 records
  ino_t inode = Inode(path);

  // Each Store evicts one filed entry. Evictions up to half the file's
  // records keep appending; the Save that sees more compacts.
  int next = 4;
  int appends = 0;
  for (; next < 40; ++next) {
    cache.Store(EntryKey(next), EntryPayload(next));
    cache.Save(path);
    if (Inode(path) != inode) break;
    ++appends;
  }
  // The k-th Store evicts the k-th filed entry from a file of 3 + k
  // records, so the Save at k = 4 (2k > 3 + k) compacts after 3 appends.
  EXPECT_EQ(appends, 3);
  // The compacted file holds exactly the live entries.
  ResultCache loaded(kTag);
  EXPECT_EQ(loaded.Load(path).loaded, 4u);
  EXPECT_EQ(loaded.Lookup(EntryKey(next)), EntryPayload(next));
  EXPECT_EQ(loaded.Lookup(EntryKey(next - 4)), "");
  std::remove(path.c_str());
}

TEST(ServeCache, FailedAppendKeepsEarlierRecordsAndNextSaveCompacts) {
  const std::string path = TempPath("failedappend");
  std::remove(path.c_str());
  ResultCache cache(kTag);
  FillEntries(cache, 2);
  cache.Save(path);
  cache.Store(EntryKey(2), EntryPayload(2));
  cache.Save(path);  // appended
  const ino_t inode = Inode(path);
  const std::string before = ReadFile(path);

  cache.Store(EntryKey(3), EntryPayload(3));
  {
    util::ScopedFaultInjection injection;
    injection->FailNth("checkpoint.write", 0);
    EXPECT_THROW(cache.Save(path), experiment::CheckpointError);
  }
  // Every earlier record still loads; the failed append left nothing.
  EXPECT_EQ(ReadFile(path), before);
  ResultCache earlier(kTag);
  EXPECT_EQ(earlier.Load(path).loaded, 3u);

  // The next Save compacts, and catches up on the entry the failure lost.
  cache.Save(path);
  EXPECT_NE(Inode(path), inode);
  ResultCache after(kTag);
  EXPECT_EQ(after.Load(path).loaded, 4u);
  EXPECT_EQ(after.Lookup(EntryKey(3)), EntryPayload(3));
  std::remove(path.c_str());
}

TEST(ServeCache, TornWriteLeavesPreviousFileIntact) {
  const std::string path = TempPath("tornwrite");
  ResultCache cache(kTag);
  FillEntries(cache, 2);
  cache.Save(path);
  const std::string before = ReadFile(path);

  cache.Store("key|extra", "{\"status\":\"ok\",\"value\":999}");
  {
    // The cache persists through the checkpoint writer, so the campaign
    // torn-write drill applies verbatim: fail the very next write.
    util::ScopedFaultInjection injection;
    injection->FailNth("checkpoint.write", 0);
    EXPECT_THROW(cache.Save(path), experiment::CheckpointError);
  }

  // The failed write was an append, rolled back: the live file is
  // unchanged, and no tmp file was left behind.
  EXPECT_EQ(ReadFile(path), before);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  // The next save (fault cleared) succeeds and includes the new entry.
  cache.Save(path);
  ResultCache loaded(kTag);
  EXPECT_EQ(loaded.Load(path).loaded, 3u);
  EXPECT_EQ(loaded.Lookup("key|extra"), "{\"status\":\"ok\",\"value\":999}");
  std::remove(path.c_str());
}

TEST(ServeCache, StoreRejectsUnrepresentableKeysAndPayloads) {
  ResultCache cache(kTag);
  EXPECT_THROW(cache.Store("", "x"), std::invalid_argument);
  EXPECT_THROW(cache.Store("has space", "x"), std::invalid_argument);
  EXPECT_THROW(cache.Store("key", ""), std::invalid_argument);
  EXPECT_THROW(cache.Store("key", "two\nlines"), std::invalid_argument);

  // First writer wins; a duplicate store is a no-op, not an overwrite.
  cache.Store("key", "first");
  cache.Store("key", "second");
  EXPECT_EQ(cache.Lookup("key"), "first");
}

// ---------------------------------------------------------------------------
// Entry cap / FIFO eviction
// ---------------------------------------------------------------------------

TEST(ServeCache, CapEvictsOldestInsertedFirst) {
  ResultCache cache(kTag, /*max_entries=*/3);
  FillEntries(cache, 5);  // stores key|0 .. key|4 in order
  EXPECT_EQ(cache.Size(), 3u);
  EXPECT_EQ(cache.Evictions(), 2u);
  // FIFO: the two oldest stores are gone, the three newest answer.
  EXPECT_EQ(cache.Lookup("key|0"), "");
  EXPECT_EQ(cache.Lookup("key|1"), "");
  EXPECT_EQ(cache.Lookup("key|2"), "{\"status\":\"ok\",\"value\":20}");
  EXPECT_EQ(cache.Lookup("key|4"), "{\"status\":\"ok\",\"value\":40}");
}

TEST(ServeCache, DuplicateStoreDoesNotRefreshFifoPosition) {
  ResultCache cache(kTag, /*max_entries=*/3);
  FillEntries(cache, 3);  // order: key|0, key|1, key|2
  // A duplicate store of the oldest key is a no-op — it must NOT move
  // key|0 to the back (eviction is insertion order, never recency).
  cache.Store("key|0", "different-bytes");
  cache.Store("key|fresh", "{\"status\":\"ok\",\"value\":999}");
  EXPECT_EQ(cache.Lookup("key|0"), "");  // still the eviction victim
  EXPECT_EQ(cache.Lookup("key|1"), "{\"status\":\"ok\",\"value\":10}");
  EXPECT_EQ(cache.Lookup("key|fresh"), "{\"status\":\"ok\",\"value\":999}");
}

TEST(ServeCache, CappedSaveIsByteIdenticalToUncappedSurvivorSet) {
  // Warm-start byte identity must survive the cap: a capped cache's file
  // is exactly the file an uncapped cache holding the surviving set would
  // write — eviction removes whole entries, never perturbs survivors.
  const std::string capped_path = TempPath("capped");
  const std::string survivors_path = TempPath("survivors");
  {
    ResultCache capped(kTag, /*max_entries=*/2);
    FillEntries(capped, 5);  // survivors: key|3, key|4
    capped.Save(capped_path);
  }
  {
    ResultCache uncapped(kTag);
    uncapped.Store("key|3", "{\"status\":\"ok\",\"value\":30}");
    uncapped.Store("key|4", "{\"status\":\"ok\",\"value\":40}");
    uncapped.Save(survivors_path);
  }
  EXPECT_EQ(ReadFile(capped_path), ReadFile(survivors_path));
  std::remove(capped_path.c_str());
  std::remove(survivors_path.c_str());
}

TEST(ServeCache, LoadAppliesCapDeterministically) {
  const std::string path = TempPath("loadcap");
  SaveCacheWithEntries(5, path);  // key|0 .. key|4, serialized in key order

  ResultCache capped(kTag, /*max_entries=*/2);
  const CacheLoadReport report = capped.Load(path);
  // The cap keeps the last max_entries in key order — the file's own
  // deterministic entry order — and reports the intact-but-evicted rest.
  EXPECT_EQ(report.loaded, 2u);
  EXPECT_EQ(report.cap_evicted, 3u);
  EXPECT_EQ(report.corrupt_dropped, 0u);
  EXPECT_FALSE(report.salvaged);
  EXPECT_EQ(capped.Size(), 2u);
  EXPECT_EQ(capped.Lookup("key|3"), "{\"status\":\"ok\",\"value\":30}");
  EXPECT_EQ(capped.Lookup("key|4"), "{\"status\":\"ok\",\"value\":40}");
  EXPECT_EQ(capped.Lookup("key|0"), "");

  // Round trip under the cap: save the survivors, reload, same bytes.
  capped.Save(path);
  ResultCache reloaded(kTag, /*max_entries=*/2);
  const CacheLoadReport second = reloaded.Load(path);
  EXPECT_EQ(second.loaded, 2u);
  EXPECT_EQ(second.cap_evicted, 0u);
  EXPECT_EQ(reloaded.Lookup("key|4"), "{\"status\":\"ok\",\"value\":40}");
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// End-to-end through QueryService
// ---------------------------------------------------------------------------

constexpr const char* kWhatIfLine =
    "{\"verb\":\"what_if\",\"distance_m\":20,\"pa_level\":31,"
    "\"payload_bytes\":50,\"packets\":60,\"seed\":11}";

TEST(ServeCache, WarmStartedServiceAnswersFromDiskByteIdentical) {
  const std::string path = TempPath("warmstart");
  std::remove(path.c_str());

  ServiceOptions options;
  options.cache_path = path;
  std::string cold_answer;
  {
    QueryService service(options);
    cold_answer = service.Answer(kWhatIfLine);
    EXPECT_EQ(service.Stats().cache_misses, 1u);
  }  // dtor flushes

  QueryService warmed(options);
  EXPECT_EQ(warmed.Stats().warm_loaded, 1u);
  EXPECT_EQ(warmed.Answer(kWhatIfLine), cold_answer);
  const auto stats = warmed.Stats();
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.cache_misses, 0u);
  EXPECT_EQ(stats.computed_what_if, 0u);
  std::remove(path.c_str());
}

TEST(ServeCache, ServiceHonorsCacheEntryCap) {
  constexpr const char* kOtherLine =
      "{\"verb\":\"what_if\",\"distance_m\":20,\"pa_level\":31,"
      "\"payload_bytes\":50,\"packets\":60,\"seed\":12}";

  ServiceOptions options;
  options.cache_max_entries = 1;
  QueryService service(options);

  const std::string first = service.Answer(kWhatIfLine);
  const std::string second = service.Answer(kOtherLine);
  EXPECT_EQ(service.Stats().cache_entries, 1u);

  // The first answer was evicted by the second; recomputing it lands on
  // the same bytes (answers are pure functions of the key).
  EXPECT_EQ(service.Answer(kWhatIfLine), first);
  const auto stats = service.Stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.computed_what_if, 3u);
  EXPECT_EQ(stats.cache_entries, 1u);

  // And a repeat of the most recent store is a genuine hit.
  EXPECT_EQ(service.Answer(kWhatIfLine), first);
  EXPECT_EQ(service.Stats().cache_hits, 1u);
  (void)second;
}

TEST(ServeCache, CorruptPersistedEntryMeansRecomputeNotCorruption) {
  const std::string path = TempPath("recompute");
  std::remove(path.c_str());

  ServiceOptions options;
  options.cache_path = path;
  std::string cold_answer;
  {
    QueryService service(options);
    cold_answer = service.Answer(kWhatIfLine);
  }

  // Flip one byte in the persisted payload.
  std::string contents = ReadFile(path);
  const std::size_t pos = contents.find("goodput_kbps");
  ASSERT_NE(pos, std::string::npos);
  contents[pos] = 'G';
  WriteFile(path, contents);

  QueryService service(options);
  const auto warm = service.Stats();
  EXPECT_EQ(warm.warm_loaded, 0u);
  EXPECT_EQ(warm.corrupt_dropped, 1u);

  // The damaged entry is recomputed — and lands on the same bytes.
  const std::string recomputed = service.Answer(kWhatIfLine);
  EXPECT_EQ(recomputed, cold_answer);
  EXPECT_EQ(service.Stats().cache_misses, 1u);
  EXPECT_EQ(service.Stats().computed_what_if, 1u);
  std::remove(path.c_str());
}

TEST(ServeCache, PersistFailureDegradesToMemoryServing) {
  const std::string path = TempPath("persistfail");
  std::remove(path.c_str());

  ServiceOptions options;
  options.cache_path = path;
  QueryService service(options);

  std::string answer;
  {
    util::ScopedFaultInjection injection;
    injection->FailAfter("checkpoint.write", 0);  // disk stays full
    answer = service.Answer(kWhatIfLine);
    EXPECT_NE(answer.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_GE(service.Stats().persist_failures, 1u);
  }

  // Still serving (from memory), and the next flush succeeds.
  EXPECT_EQ(service.Answer(kWhatIfLine), answer);
  EXPECT_TRUE(service.Flush());
  ResultCache loaded(std::string(serve::kServeVersionTag));
  EXPECT_EQ(loaded.Load(path).loaded, 1u);
  std::remove(path.c_str());
}

TEST(ServeCache, PersistEveryOneAppendsOneRecordPerMiss) {
  const std::string path = TempPath("persistevery");
  std::remove(path.c_str());
  ServiceOptions options;
  options.cache_path = path;
  options.persist_every = 1;
  QueryService service(options);
  const auto what_if = [](int seed) {
    return "{\"verb\":\"what_if\",\"distance_m\":20,\"pa_level\":31,"
           "\"payload_bytes\":50,\"packets\":20,\"seed\":" +
           std::to_string(seed) + "}";
  };

  (void)service.Answer(what_if(0));  // the first Save compacts
  const ino_t inode = Inode(path);
  std::string expected = ReadFile(path);
  for (int seed = 1; seed <= 50; ++seed) {
    const std::string line = what_if(seed);
    const std::string reply = service.Answer(line);
    expected += EntryRecord(serve::CanonicalKey(serve::ParseRequest(line)),
                            reply);
  }
  EXPECT_EQ(service.Stats().cache_misses, 51u);
  EXPECT_EQ(service.Stats().persist_failures, 0u);
  EXPECT_EQ(Inode(path), inode);
  EXPECT_EQ(ReadFile(path), expected);
  std::remove(path.c_str());
}

TEST(ServeCache, Version1FileIsDiscarded) {
  // tests/golden/servecache_v1.cache: frozen, written by the version 1
  // writer under the tag wsnlink-serve-v1, which kServeVersionTag replaced.
  const std::string path = TempPath("version1");
  std::filesystem::copy_file(
      std::string(WSNLINK_GOLDEN_DIR) + "/servecache_v1.cache", path,
      std::filesystem::copy_options::overwrite_existing);
  ResultCache cache{std::string(serve::kServeVersionTag)};
  const CacheLoadReport report = cache.Load(path);
  EXPECT_TRUE(report.invalidated);
  EXPECT_EQ(report.loaded, 0u);
  EXPECT_EQ(report.corrupt_dropped, 0u);

  ServiceOptions options;
  options.cache_path = path;
  {
    QueryService warm(options);
    EXPECT_EQ(warm.Stats().warm_loaded, 0u);
    EXPECT_EQ(warm.Stats().corrupt_dropped, 0u);
    // A miss persists, and the write is version 2.
    (void)warm.Answer(kWhatIfLine);
  }
  EXPECT_EQ(ReadFile(path).rfind("wsnlink-servecache 2 ", 0), 0u);
  ResultCache reloaded{std::string(serve::kServeVersionTag)};
  EXPECT_EQ(reloaded.Load(path).loaded, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace wsnlink
