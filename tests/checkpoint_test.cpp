// Crash-safety tests: checkpoint format validation and campaign resume.
//
// The load-bearing property is bit-identity — a campaign interrupted at an
// arbitrary point and resumed must emit a summary CSV byte-equal to an
// uninterrupted run (docs/ROBUSTNESS.md). Everything else here defends the
// resume path's failure modes: a foreign file or a damaged header must be
// rejected loudly, a damaged row record must cost exactly that row (one
// recompute), and nothing may ever resume into garbage. The journal tests
// also pin that checkpoint writes really append, and that version 1 files
// written before the journal still resume.
#include <gtest/gtest.h>
#include <sys/stat.h>

#include <charconv>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "experiment/campaign.h"
#include "experiment/checkpoint.h"
#include "experiment/dataset.h"
#include "experiment/journal.h"
#include "util/fault_injection.h"

namespace wsnlink::experiment {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void WriteFile(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

/// A frozen version 1 checkpoint: SmallCampaign's contract, interrupted
/// after 5 configurations, as written before the journal existed.
std::string Version1Fixture() {
  return std::string(WSNLINK_GOLDEN_DIR) + "/checkpoint_v1.ckpt";
}

/// Inode of `path`: an append keeps it, a tmp+rename compaction changes it.
ino_t Inode(const std::string& path) {
  struct stat st {};
  EXPECT_EQ(::stat(path.c_str(), &st), 0) << path;
  return st.st_ino;
}

Checkpoint SampleCheckpoint() {
  Checkpoint checkpoint;
  checkpoint.meta.base_seed = 2013;
  checkpoint.meta.packet_count = 50;
  checkpoint.meta.stride = 4000;
  checkpoint.meta.space_size = 48384;
  checkpoint.meta.config_count = 13;
  checkpoint.rows.push_back({0, false, "", "10,11,3,30,5,50,80,1,2,3"});
  checkpoint.rows.push_back({5, true, "injected fault at sweep.worker",
                             "10,11,3,30,5,50,80,0,0,0"});
  checkpoint.rows.push_back({12, false, "", "40,31,1,90,1,200,100,4,5,6"});
  return checkpoint;
}

bool SameRow(const CheckpointRow& a, const CheckpointRow& b) {
  return a.index == b.index && a.failed == b.failed && a.error == b.error &&
         a.csv_row == b.csv_row;
}

/// Expects `loaded` to hold exactly `expected`'s rows at `keep` positions.
void ExpectRows(const Checkpoint& loaded, const Checkpoint& expected,
                const std::vector<std::size_t>& keep) {
  ASSERT_EQ(loaded.rows.size(), keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    EXPECT_TRUE(SameRow(loaded.rows[i], expected.rows[keep[i]]))
        << "row " << i;
  }
}

/// Small, fast campaign shared by the resume tests: ~13 configurations.
CampaignOptions SmallCampaign(const std::string& csv,
                              const std::string& checkpoint) {
  CampaignOptions options;
  options.packet_count = 20;
  options.stride = 4000;
  options.base_seed = 77;
  options.summary_csv_path = csv;
  options.checkpoint_path = checkpoint;
  options.checkpoint_every = 2;
  options.collect_counters = false;
  return options;
}

TEST(Checkpoint, WriteReadRoundTrip) {
  const std::string path = TempPath("wsn_ckpt_roundtrip.ckpt");
  const Checkpoint original = SampleCheckpoint();
  WriteCheckpoint(path, original);

  const Checkpoint loaded = ReadCheckpoint(path);
  EXPECT_EQ(loaded.meta, original.meta);
  ASSERT_EQ(loaded.rows.size(), original.rows.size());
  for (std::size_t i = 0; i < loaded.rows.size(); ++i) {
    EXPECT_EQ(loaded.rows[i].index, original.rows[i].index);
    EXPECT_EQ(loaded.rows[i].failed, original.rows[i].failed);
    EXPECT_EQ(loaded.rows[i].error, original.rows[i].error);
    EXPECT_EQ(loaded.rows[i].csv_row, original.rows[i].csv_row);
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, MissingFileRejected) {
  EXPECT_THROW((void)ReadCheckpoint(TempPath("wsn_ckpt_nonexistent.ckpt")),
               CheckpointError);
}

TEST(Checkpoint, TruncatedFileRejected) {
  const std::string path = TempPath("wsn_ckpt_truncated.ckpt");
  WriteCheckpoint(path, SampleCheckpoint());
  const std::string contents = ReadFile(path);

  // A cut inside the header record leaves rows that cannot be attributed
  // to a campaign: rejected, never a crash. (A cut inside a row record
  // costs only that row: TornTailRecordCostsOnlyThatRecord.)
  const std::size_t header_end = contents.find('\n');
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{1}, header_end / 2, header_end}) {
    WriteFile(path, contents.substr(0, keep));
    EXPECT_THROW((void)ReadCheckpoint(path), CheckpointError)
        << "prefix of " << keep << " bytes was accepted";
  }

  // A version 1 file keeps its whole-file rule: every prefix that drops
  // at least the end line is rejected.
  const std::string v1 = ReadFile(Version1Fixture());
  for (const std::size_t keep :
       {std::size_t{0}, std::size_t{1}, v1.size() / 2, v1.size() - 2}) {
    WriteFile(path, v1.substr(0, keep));
    EXPECT_THROW((void)ReadCheckpoint(path), CheckpointError)
        << "version 1 prefix of " << keep << " bytes was accepted";
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, TornTailRecordCostsOnlyThatRecord) {
  const std::string path = TempPath("wsn_ckpt_torn.ckpt");
  const Checkpoint original = SampleCheckpoint();
  WriteCheckpoint(path, original);
  const std::string contents = ReadFile(path);
  const std::size_t last_start = contents.rfind('\n', contents.size() - 2) + 1;

  // Every cut that leaves part of the last record behind (a crash
  // mid-append) drops exactly that record.
  for (std::size_t cut = 1; cut < contents.size() - last_start; ++cut) {
    WriteFile(path, contents.substr(0, contents.size() - cut));
    const Checkpoint loaded = ReadCheckpoint(path);
    EXPECT_EQ(loaded.meta, original.meta);
    EXPECT_EQ(loaded.dropped, 1u) << "cut " << cut;
    ExpectRows(loaded, original, {0, 1});
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, FlippedByteCostsOnlyThatRecord) {
  const std::string path = TempPath("wsn_ckpt_flipped.ckpt");
  const Checkpoint original = SampleCheckpoint();
  WriteCheckpoint(path, original);
  const std::string contents = ReadFile(path);

  // Flip each byte of the middle row record in turn, checksum included.
  const std::size_t start = contents.find("row 5 ");
  const std::size_t end = contents.find('\n', start);
  ASSERT_NE(start, std::string::npos);
  for (std::size_t pos = start; pos < end; ++pos) {
    std::string mutated = contents;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x01);
    WriteFile(path, mutated);
    const Checkpoint loaded = ReadCheckpoint(path);
    EXPECT_EQ(loaded.dropped, 1u) << "byte " << pos;
    ExpectRows(loaded, original, {0, 2});
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, AppendedRowsComeBackInIndexOrder) {
  const std::string path = TempPath("wsn_ckpt_order.ckpt");
  const Checkpoint original = SampleCheckpoint();
  std::string file;
  AppendHeaderRecord(&file, original.meta);
  // Completion order, not index order, and row 5 journaled twice with
  // identical bytes (kept once).
  for (const std::size_t r : {2, 0, 1, 1}) {
    AppendRowRecord(&file, original.rows[r]);
  }
  WriteFile(path, file);
  const Checkpoint loaded = ReadCheckpoint(path);
  EXPECT_EQ(loaded.dropped, 0u);
  ExpectRows(loaded, original, {0, 1, 2});
  std::filesystem::remove(path);
}

TEST(Checkpoint, ConflictingRowsForOneIndexRejected) {
  const std::string path = TempPath("wsn_ckpt_conflict.ckpt");
  const Checkpoint original = SampleCheckpoint();
  std::string file;
  AppendHeaderRecord(&file, original.meta);
  for (const auto& row : original.rows) AppendRowRecord(&file, row);
  // Two verified records for index 5 with different bytes can only be a
  // determinism bug.
  CheckpointRow other = original.rows[1];
  other.csv_row = "10,11,3,30,5,50,80,9,9,9";
  AppendRowRecord(&file, other);
  WriteFile(path, file);
  try {
    (void)ReadCheckpoint(path);
    FAIL() << "conflicting rows were accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("index 5"), std::string::npos);
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, BadMagicRejected) {
  const std::string path = TempPath("wsn_ckpt_magic.ckpt");
  WriteCheckpoint(path, SampleCheckpoint());
  std::string contents = ReadFile(path);
  contents[0] = 'X';
  WriteFile(path, contents);
  EXPECT_THROW((void)ReadCheckpoint(path), CheckpointError);
  std::filesystem::remove(path);
}

TEST(Checkpoint, VersionMismatchRejected) {
  const std::string path = TempPath("wsn_ckpt_version.ckpt");
  // Future-versioned file with a correct checksum: the version gate, not
  // the checksum, must reject it.
  std::string body = "wsnlink-checkpoint 999\n";
  std::ostringstream out;
  out << body << "end " << std::hex << std::setw(16) << std::setfill('0')
      << CheckpointChecksum(body) << "\n";
  WriteFile(path, out.str());
  try {
    (void)ReadCheckpoint(path);
    FAIL() << "version 999 was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, ChecksumMismatchRejected) {
  const std::string path = TempPath("wsn_ckpt_checksum.ckpt");
  WriteCheckpoint(path, SampleCheckpoint());
  std::string contents = ReadFile(path);
  // Flip one payload byte (a digit of base_seed) without touching the
  // stored checksum.
  const std::size_t pos = contents.find("2013");
  ASSERT_NE(pos, std::string::npos);
  contents[pos] = '9';
  WriteFile(path, contents);
  try {
    (void)ReadCheckpoint(path);
    FAIL() << "bit-flipped checkpoint was accepted";
  } catch (const CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum"), std::string::npos);
  }
  std::filesystem::remove(path);
}

TEST(Checkpoint, TrailingGarbageRejected) {
  const std::string path = TempPath("wsn_ckpt_trailing.ckpt");
  const std::string garbage = "row 3 ok\t\t1,2,3\n";

  // An unchecksummed record is dropped, never resumed as a row.
  WriteCheckpoint(path, SampleCheckpoint());
  WriteFile(path, ReadFile(path) + garbage);
  const Checkpoint loaded = ReadCheckpoint(path);
  EXPECT_EQ(loaded.dropped, 1u);
  ExpectRows(loaded, SampleCheckpoint(), {0, 1, 2});

  // A version 1 file rejects anything after its end line.
  WriteFile(path, ReadFile(Version1Fixture()) + garbage);
  EXPECT_THROW((void)ReadCheckpoint(path), CheckpointError);
  std::filesystem::remove(path);
}

TEST(Checkpoint, CorruptionFuzzNeverCrashesOrMisparses) {
  const std::string path = TempPath("wsn_ckpt_fuzz.ckpt");
  WriteCheckpoint(path, SampleCheckpoint());
  const std::string pristine = ReadFile(path);

  std::mt19937 rng(20150629);
  std::uniform_int_distribution<std::size_t> pos_dist(0, pristine.size() - 1);
  std::uniform_int_distribution<int> byte_dist(0, 255);
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = pristine;
    const int mutations = 1 + static_cast<int>(rng() % 4);
    for (int m = 0; m < mutations; ++m) {
      const std::size_t pos = pos_dist(rng) % mutated.size();
      switch (rng() % 3) {
        case 0:  // flip
          mutated[pos] = static_cast<char>(byte_dist(rng));
          break;
        case 1:  // delete
          mutated.erase(pos, 1);
          break;
        default:  // truncate
          mutated.resize(pos);
          break;
      }
      if (mutated.empty()) break;
    }
    WriteFile(path, mutated);
    // Damage to the header must surface as CheckpointError, damage to a
    // row record drops that row — never a crash, never a silently wrong
    // parse: whatever loads is the written meta and written rows.
    try {
      const Checkpoint loaded = ReadCheckpoint(path);
      EXPECT_EQ(loaded.meta, SampleCheckpoint().meta)
          << "trial " << trial << ": corrupted checkpoint parsed differently";
      for (const CheckpointRow& row : loaded.rows) {
        bool written = false;
        for (const CheckpointRow& original : SampleCheckpoint().rows) {
          written = written || SameRow(row, original);
        }
        EXPECT_TRUE(written) << "trial " << trial << ": row " << row.index
                             << " was never written";
      }
    } catch (const CheckpointError&) {
      // Expected whenever the header is hit.
    }
  }
  std::filesystem::remove(path);
}

/// ScanJournal as a plain per-record reader computes it: each line split,
/// unframed and hashed on its own with CheckpointChecksum.
JournalScan ReferenceScan(std::string_view contents) {
  JournalScan scan;
  bool first = true;
  std::size_t pos = 0;
  while (pos < contents.size()) {
    const std::size_t nl = contents.find('\n', pos);
    std::optional<std::string_view> body;
    if (nl != std::string_view::npos) {
      const std::string_view line = contents.substr(pos, nl - pos);
      if (line.size() >= 17 && line[line.size() - 17] == ' ') {
        const std::string_view hex = line.substr(line.size() - 16);
        std::uint64_t stored = 0;
        const auto [ptr, ec] =
            std::from_chars(hex.data(), hex.data() + hex.size(), stored, 16);
        const std::string_view candidate = line.substr(0, line.size() - 17);
        if (ec == std::errc() && ptr == hex.data() + hex.size() &&
            CheckpointChecksum(candidate) == stored) {
          body = candidate;
        }
      }
    }
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

/// Where each of a scan's views sits in `contents`: (offset, length) of
/// the header (or (-1, 0) when it has none), then of every record.
std::vector<std::pair<std::ptrdiff_t, std::size_t>> Spans(
    const JournalScan& scan, std::string_view contents) {
  std::vector<std::pair<std::ptrdiff_t, std::size_t>> spans;
  spans.emplace_back(scan.header.empty() ? -1
                                         : scan.header.data() - contents.data(),
                     scan.header.size());
  for (const std::string_view record : scan.records) {
    spans.emplace_back(record.data() - contents.data(), record.size());
  }
  return spans;
}

/// A header record, then `records` data records of random bytes (any but
/// LF). Body lengths run from 0 to 2,000 and differ within a group of four.
std::string SeededJournal(std::mt19937& rng, int records) {
  std::string journal = "wsnlink-checkpoint 2 seeded";
  FrameRecord(&journal, 0);
  std::uniform_int_distribution<int> length(0, 2000);
  for (int r = 0; r < records; ++r) {
    const std::size_t start = journal.size();
    int bytes = length(rng);
    if (rng() % 4 == 0) bytes = rng() % 2 == 0 ? 0 : 2000;
    for (int i = 0; i < bytes; ++i) {
      char byte = '\n';
      while (byte == '\n') byte = static_cast<char>(rng() & 0xFF);
      journal.push_back(byte);
    }
    FrameRecord(&journal, start);
  }
  return journal;
}

// ScanJournal verifies data records four at a time; whatever the damage
// and whatever the remainder after the groups of four, it must find the
// same header, records and dropped count as a per-record scan.
TEST(Checkpoint, GroupedScanMatchesPerRecordScan) {
  const auto expect_same = [](std::string_view contents,
                              const std::string& what) {
    const JournalScan got = ScanJournal(contents);
    const JournalScan want = ReferenceScan(contents);
    EXPECT_EQ(Spans(got, contents), Spans(want, contents)) << what;
    EXPECT_EQ(got.dropped, want.dropped) << what;
  };
  expect_same("", "empty file");
  std::mt19937 rng(20150629);
  const std::string header_only = SeededJournal(rng, 0);
  expect_same(header_only, "header only");
  expect_same(std::string_view(header_only).substr(0, header_only.size() - 1),
              "header without its LF");

  int damaged_records = 0;
  for (int records = 0; records <= 9; ++records) {
    for (int trial = 0; trial < 25; ++trial) {
      std::string journal = SeededJournal(rng, records);
      const std::string what = std::to_string(records) + " records, trial " +
                               std::to_string(trial);
      // The end of one record's checksum field, past the header.
      const std::size_t header_end = journal.find('\n');
      std::size_t field_end = header_end;
      for (int r = records == 0 ? 0 : static_cast<int>(rng() % records) + 1;
           r > 0; --r) {
        field_end = journal.find('\n', field_end + 1);
      }
      switch (trial % 5) {
        case 0:  // intact
          break;
        case 1:  // flipped bytes, LFs included
          for (int flips = 1 + static_cast<int>(rng() % 3); flips > 0;
               --flips) {
            journal[rng() % journal.size()] =
                static_cast<char>(rng() & 0xFF);
          }
          break;
        case 2:  // a bad checksum digit
          journal[field_end - 1 - rng() % 16] = "0fg "[rng() % 4];
          break;
        case 3:  // a short checksum field
          journal.erase(field_end - 1 - rng() % 16, 1);
          break;
        default:  // a torn last line
          journal.resize(journal.size() - 1 - rng() % 40);
          break;
      }
      const JournalScan want = ReferenceScan(journal);
      damaged_records += static_cast<int>(want.dropped);
      expect_same(journal, what);
    }
  }
  // The damage really reached the data records.
  EXPECT_GT(damaged_records, 100);
}

TEST(CampaignResume, InterruptedRunResumesBitIdentical) {
  const std::string ref_csv = TempPath("wsn_resume_ref.csv");
  const std::string resumed_csv = TempPath("wsn_resume_out.csv");
  const std::string ckpt = TempPath("wsn_resume.ckpt");
  std::filesystem::remove(ckpt);
  std::filesystem::remove(resumed_csv);

  // Reference: one uninterrupted run.
  const auto reference = RunCampaign(SmallCampaign(ref_csv, ""));
  EXPECT_TRUE(reference.complete);

  // Interrupted run: stop after 5 fresh completions (threads=1 so the
  // cancel budget is exact — a wide pool could drain all 13 configs before
  // the predicate fires). The resumed run goes back to the default pool,
  // so byte-identity is also checked across thread counts. No CSV yet.
  CampaignOptions interrupted = SmallCampaign(resumed_csv, ckpt);
  interrupted.max_configs = 5;
  interrupted.threads = 1;
  const auto partial = RunCampaign(interrupted);
  EXPECT_FALSE(partial.complete);
  EXPECT_FALSE(std::filesystem::exists(resumed_csv));
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  // Resume: restores the checkpointed rows, runs the rest, writes the CSV.
  CampaignOptions resume = SmallCampaign(resumed_csv, ckpt);
  resume.resume = true;
  const auto resumed = RunCampaign(resume);
  EXPECT_TRUE(resumed.complete);
  EXPECT_GE(resumed.configs_resumed, 5u);
  EXPECT_LT(resumed.configs_resumed, resumed.configurations);

  // The headline guarantee: byte-for-byte equality.
  EXPECT_EQ(ReadFile(resumed_csv), ReadFile(ref_csv));

  std::filesystem::remove(ref_csv);
  std::filesystem::remove(resumed_csv);
  std::filesystem::remove(ckpt);
}

TEST(CampaignResume, DelayQuantileColumnsSurviveResume) {
  // The summary schema's delay_p50_ms / delay_p99_ms / delay_max_ms
  // columns ride through the checkpoint as serialized CSV rows; a resumed
  // campaign must restore them bit-exactly and keep them internally
  // ordered. (Byte-identity above already implies this; parsing the rows
  // back pins the schema <-> struct mapping itself.)
  const std::string ref_csv = TempPath("wsn_resume_delay_ref.csv");
  const std::string resumed_csv = TempPath("wsn_resume_delay_out.csv");
  const std::string ckpt = TempPath("wsn_resume_delay.ckpt");
  std::filesystem::remove(ckpt);
  std::filesystem::remove(resumed_csv);

  (void)RunCampaign(SmallCampaign(ref_csv, ""));
  CampaignOptions interrupted = SmallCampaign(resumed_csv, ckpt);
  interrupted.max_configs = 5;
  interrupted.threads = 1;
  (void)RunCampaign(interrupted);
  CampaignOptions resume = SmallCampaign(resumed_csv, ckpt);
  resume.resume = true;
  (void)RunCampaign(resume);

  const auto reference = ReadSummaryCsv(ref_csv);
  const auto resumed = ReadSummaryCsv(resumed_csv);
  ASSERT_EQ(reference.size(), resumed.size());
  ASSERT_FALSE(reference.empty());
  bool any_delivered = false;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    // Bit-exact: the resumed rows come from the checkpoint, not a re-run.
    EXPECT_EQ(reference[i].measured.delay_p50_ms,
              resumed[i].measured.delay_p50_ms)
        << "row " << i;
    EXPECT_EQ(reference[i].measured.p99_delay_ms,
              resumed[i].measured.p99_delay_ms)
        << "row " << i;
    EXPECT_EQ(reference[i].measured.delay_max_ms,
              resumed[i].measured.delay_max_ms)
        << "row " << i;
    if (resumed[i].measured.delivered_unique > 0) {
      any_delivered = true;
      EXPECT_GT(resumed[i].measured.delay_p50_ms, 0.0) << "row " << i;
      EXPECT_LE(resumed[i].measured.delay_p50_ms,
                resumed[i].measured.p99_delay_ms)
          << "row " << i;
      EXPECT_LE(resumed[i].measured.p99_delay_ms,
                resumed[i].measured.delay_max_ms)
          << "row " << i;
    }
  }
  EXPECT_TRUE(any_delivered);

  std::filesystem::remove(ref_csv);
  std::filesystem::remove(resumed_csv);
  std::filesystem::remove(ckpt);
}

TEST(CampaignResume, CompletedCampaignReemitsIdenticalCsv) {
  const std::string csv = TempPath("wsn_resume_complete.csv");
  const std::string ckpt = TempPath("wsn_resume_complete.ckpt");
  std::filesystem::remove(ckpt);

  CampaignOptions options = SmallCampaign(csv, ckpt);
  const auto first = RunCampaign(options);
  EXPECT_TRUE(first.complete);
  const std::string first_bytes = ReadFile(csv);

  options.resume = true;
  const auto second = RunCampaign(options);
  EXPECT_TRUE(second.complete);
  // Everything restored, nothing re-simulated.
  EXPECT_EQ(second.configs_resumed, second.configurations);
  EXPECT_EQ(ReadFile(csv), first_bytes);

  std::filesystem::remove(csv);
  std::filesystem::remove(ckpt);
}

TEST(CampaignResume, SeedContractMismatchRejected) {
  const std::string csv = TempPath("wsn_resume_contract.csv");
  const std::string ckpt = TempPath("wsn_resume_contract.ckpt");
  std::filesystem::remove(ckpt);

  CampaignOptions options = SmallCampaign(csv, ckpt);
  options.max_configs = 3;
  (void)RunCampaign(options);
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  // Rows measured under seed 77 must not seed a campaign keyed to 78.
  CampaignOptions mismatched = SmallCampaign(csv, ckpt);
  mismatched.resume = true;
  mismatched.base_seed = 78;
  EXPECT_THROW((void)RunCampaign(mismatched), CheckpointError);

  std::filesystem::remove(csv);
  std::filesystem::remove(ckpt);
}

TEST(CampaignResume, CheckpointWriteFaultDegradesGracefully) {
  const std::string csv = TempPath("wsn_resume_fault.csv");
  const std::string ckpt = TempPath("wsn_resume_fault.ckpt");
  std::filesystem::remove(ckpt);

  util::ScopedFaultInjection injection;
  injection->FailAfter("checkpoint.write", 0);  // disk stays full

  const auto result = RunCampaign(SmallCampaign(csv, ckpt));
  // The campaign completes and delivers its CSV despite every checkpoint
  // write failing; the failure is reported, not thrown.
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.checkpoint_write_error.empty());
  EXPECT_NE(result.checkpoint_write_error.find("checkpoint"),
            std::string::npos);
  EXPECT_TRUE(std::filesystem::exists(csv));
  // The atomic tmp+rename protocol never published a bad file.
  EXPECT_FALSE(std::filesystem::exists(ckpt));
  EXPECT_FALSE(std::filesystem::exists(ckpt + ".tmp"));

  std::filesystem::remove(csv);
}

TEST(CampaignResume, FaultedCheckpointWriteLeavesPreviousIntact) {
  const std::string csv = TempPath("wsn_resume_prev.csv");
  const std::string ckpt = TempPath("wsn_resume_prev.ckpt");
  std::filesystem::remove(ckpt);

  // First: a healthy partial run leaves a valid checkpoint.
  CampaignOptions options = SmallCampaign(csv, ckpt);
  options.max_configs = 3;
  (void)RunCampaign(options);
  ASSERT_TRUE(std::filesystem::exists(ckpt));
  const std::string before = ReadFile(ckpt);

  // Then: resume with all checkpoint writes failing. The run completes and
  // the pre-existing checkpoint file is byte-identical to before.
  util::ScopedFaultInjection injection;
  injection->FailAfter("checkpoint.write", 0);
  CampaignOptions resume = SmallCampaign(csv, ckpt);
  resume.resume = true;
  const auto result = RunCampaign(resume);
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.checkpoint_write_error.empty());
  EXPECT_EQ(ReadFile(ckpt), before);

  std::filesystem::remove(csv);
  std::filesystem::remove(ckpt);
}

TEST(CampaignResume, Version1CheckpointResumesBitIdentical) {
  const std::string ref_csv = TempPath("wsn_resume_v1_ref.csv");
  const std::string resumed_csv = TempPath("wsn_resume_v1_out.csv");
  const std::string ckpt = TempPath("wsn_resume_v1.ckpt");
  std::filesystem::copy_file(Version1Fixture(), ckpt,
                             std::filesystem::copy_options::overwrite_existing);

  (void)RunCampaign(SmallCampaign(ref_csv, ""));
  CampaignOptions resume = SmallCampaign(resumed_csv, ckpt);
  resume.resume = true;
  const auto resumed = RunCampaign(resume);
  EXPECT_TRUE(resumed.complete);
  EXPECT_EQ(resumed.configs_resumed, 5u);
  EXPECT_EQ(ReadFile(resumed_csv), ReadFile(ref_csv));
  // The next write is version 2: writers write nothing else.
  EXPECT_EQ(ReadFile(ckpt).rfind("wsnlink-checkpoint 2 ", 0), 0u);

  std::filesystem::remove(ref_csv);
  std::filesystem::remove(resumed_csv);
  std::filesystem::remove(ckpt);
}

TEST(CampaignResume, DamagedJournalResumesBitIdentical) {
  const std::string ref_csv = TempPath("wsn_resume_damaged_ref.csv");
  const std::string resumed_csv = TempPath("wsn_resume_damaged_out.csv");
  const std::string ckpt = TempPath("wsn_resume_damaged.ckpt");
  const std::string journal = TempPath("wsn_resume_damaged.journal");
  std::filesystem::remove(ckpt);
  (void)RunCampaign(SmallCampaign(ref_csv, ""));

  // Snapshot the checkpoint mid-run, as a crash would leave it: a
  // compacted first write (rows 0-1) plus one appended batch (rows 2-3).
  CampaignOptions run = SmallCampaign(resumed_csv, ckpt);
  run.threads = 1;
  run.progress = [&](std::size_t done, std::size_t) {
    if (done == 4) {
      std::filesystem::copy_file(
          ckpt, journal, std::filesystem::copy_options::overwrite_existing);
    }
  };
  (void)RunCampaign(run);
  const std::string pristine = ReadFile(journal);
  ASSERT_EQ(ReadCheckpoint(journal).rows.size(), 4u);

  std::string flipped = pristine;
  flipped[flipped.find("row 2 ") + 8] ^= 0x01;
  // Torn: the last 5 bytes (the LF and 4 checksum digits) never landed.
  for (const std::string& damaged :
       {pristine.substr(0, pristine.size() - 5), flipped}) {
    WriteFile(ckpt, damaged);
    std::filesystem::remove(resumed_csv);
    CampaignOptions resume = SmallCampaign(resumed_csv, ckpt);
    resume.resume = true;
    const auto resumed = RunCampaign(resume);
    // Exactly one row lost, recomputed, and the CSV unchanged.
    EXPECT_EQ(resumed.checkpoint_records_dropped, 1u);
    EXPECT_EQ(resumed.configs_resumed, 3u);
    EXPECT_EQ(ReadFile(resumed_csv), ReadFile(ref_csv));
  }

  std::filesystem::remove(ref_csv);
  std::filesystem::remove(resumed_csv);
  std::filesystem::remove(ckpt);
  std::filesystem::remove(journal);
}

TEST(CampaignResume, CheckpointWritesAppendUntilTheFinalCompaction) {
  const std::string csv = TempPath("wsn_resume_append.csv");
  const std::string ckpt = TempPath("wsn_resume_append.ckpt");
  std::filesystem::remove(ckpt);

  CampaignOptions options = SmallCampaign(csv, ckpt);
  options.checkpoint_every = 1;
  options.threads = 1;
  std::vector<std::pair<ino_t, std::uintmax_t>> seen;
  options.progress = [&](std::size_t, std::size_t) {
    seen.emplace_back(Inode(ckpt), std::filesystem::file_size(ckpt));
  };
  const auto result = RunCampaign(options);
  ASSERT_TRUE(result.complete);
  ASSERT_EQ(seen.size(), result.configurations);

  // The final checkpoint is compacted in index order; one worker
  // completes in index order too, so every earlier write is a prefix.
  const Checkpoint final_checkpoint = ReadCheckpoint(ckpt);
  std::string expected;
  AppendHeaderRecord(&expected, final_checkpoint.meta);
  for (std::size_t k = 0; k < seen.size(); ++k) {
    AppendRowRecord(&expected, final_checkpoint.rows[k]);
    // The first write creates the file; each later one appends exactly its
    // row record to the same inode.
    EXPECT_EQ(seen[k].first, seen[0].first) << "write " << k;
    EXPECT_EQ(seen[k].second, expected.size()) << "write " << k;
  }
  // The final compaction replaces the file: new inode, same bytes.
  EXPECT_NE(Inode(ckpt), seen[0].first);
  EXPECT_EQ(ReadFile(ckpt), expected);

  std::filesystem::remove(csv);
  std::filesystem::remove(ckpt);
}

TEST(CampaignResume, FailedAppendKeepsEarlierRecordsAndNextWriteCompacts) {
  const std::string csv = TempPath("wsn_resume_failed_append.csv");
  const std::string ckpt = TempPath("wsn_resume_failed_append.ckpt");
  std::filesystem::remove(ckpt);

  util::ScopedFaultInjection injection;
  // Write 0 compacts (a new file), writes 1 and 2 append, write 3 is an
  // append that fails.
  injection->FailNth("checkpoint.write", 3);
  CampaignOptions options = SmallCampaign(csv, ckpt);
  options.checkpoint_every = 1;
  options.threads = 1;
  std::vector<std::pair<ino_t, std::size_t>> seen;
  options.progress = [&](std::size_t, std::size_t) {
    seen.emplace_back(Inode(ckpt), ReadCheckpoint(ckpt).rows.size());
  };
  const auto result = RunCampaign(options);
  EXPECT_TRUE(result.complete);
  EXPECT_FALSE(result.checkpoint_write_error.empty());
  ASSERT_GE(seen.size(), 5u);

  // Before the failure: one file, growing.
  EXPECT_EQ(seen[2], std::make_pair(seen[0].first, std::size_t{3}));
  // The failed append: every earlier record still loads.
  EXPECT_EQ(seen[3], std::make_pair(seen[0].first, std::size_t{3}));
  // The next write compacts (new inode) and catches up on the lost row.
  EXPECT_NE(seen[4].first, seen[0].first);
  EXPECT_EQ(seen[4].second, 5u);

  std::filesystem::remove(csv);
  std::filesystem::remove(ckpt);
}

}  // namespace
}  // namespace wsnlink::experiment
