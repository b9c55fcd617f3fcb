// Tests for the sweep driver, dataset export and campaign.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/opt/config_space.h"
#include "experiment/campaign.h"
#include "experiment/dataset.h"
#include "experiment/sweep.h"
#include "util/csv.h"
#include "util/fault_injection.h"
#include "util/thread_pool.h"

namespace wsnlink::experiment {
namespace {

std::vector<core::StackConfig> SmallConfigSet() {
  std::vector<core::StackConfig> configs;
  for (const int level : {11, 19, 31}) {
    core::StackConfig config;
    config.distance_m = 25.0;
    config.pa_level = level;
    config.max_tries = 3;
    config.queue_capacity = 5;
    config.pkt_interval_ms = 50.0;
    config.payload_bytes = 80;
    configs.push_back(config);
  }
  return configs;
}

TEST(Sweep, ResultsParallelInputOrder) {
  SweepOptions options;
  options.packet_count = 100;
  const auto points = RunSweep(SmallConfigSet(), options);
  ASSERT_EQ(points.size(), 3u);
  EXPECT_EQ(points[0].config.pa_level, 11);
  EXPECT_EQ(points[2].config.pa_level, 31);
  // Higher power -> higher SNR.
  EXPECT_LT(points[0].mean_snr_db, points[2].mean_snr_db);
}

TEST(Sweep, DeterministicAcrossThreadCounts) {
  SweepOptions serial;
  serial.packet_count = 100;
  serial.threads = 1;
  SweepOptions parallel;
  parallel.packet_count = 100;
  parallel.threads = 4;

  const auto a = RunSweep(SmallConfigSet(), serial);
  const auto b = RunSweep(SmallConfigSet(), parallel);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_DOUBLE_EQ(a[i].measured.goodput_kbps, b[i].measured.goodput_kbps);
    EXPECT_DOUBLE_EQ(a[i].measured.per, b[i].measured.per);
    EXPECT_EQ(a[i].measured.delivered_unique, b[i].measured.delivered_unique);
  }
}

TEST(Sweep, ProgressCallbackReachesTotal) {
  SweepOptions options;
  options.packet_count = 50;
  options.threads = 2;
  std::atomic<std::size_t> last{0};
  options.progress = [&last](std::size_t done, std::size_t total) {
    EXPECT_LE(done, total);
    std::size_t prev = last.load();
    while (done > prev && !last.compare_exchange_weak(prev, done)) {
    }
  };
  const auto points = RunSweep(SmallConfigSet(), options);
  EXPECT_EQ(last.load(), points.size());
}

TEST(Sweep, SeedsDifferPerIndex) {
  EXPECT_NE(SweepSeed(1, 0), SweepSeed(1, 1));
  EXPECT_NE(SweepSeed(1, 0), SweepSeed(2, 0));
  EXPECT_EQ(SweepSeed(5, 3), SweepSeed(5, 3));
}

TEST(Sweep, ParallelForRethrowsTheLowestIndexThrownOnWorkers) {
  // The caller blocks in its first index until a worker has thrown, so the
  // throws happen on pool workers; each throwing index sleeps first, so
  // several can be in flight at once.
  util::ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::mutex mutex;
  std::condition_variable thrown_cv;
  std::vector<std::size_t> thrown;
  int in_flight = 0;
  const auto fn = [&](std::size_t i) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      ++in_flight;
    }
    struct Leave {
      std::mutex& mutex;
      int& in_flight;
      ~Leave() {
        std::lock_guard<std::mutex> lock(mutex);
        --in_flight;
      }
    } leave{mutex, in_flight};
    if (std::this_thread::get_id() == caller) {
      std::unique_lock<std::mutex> lock(mutex);
      thrown_cv.wait_for(lock, std::chrono::seconds(10),
                         [&] { return !thrown.empty(); });
      return;
    }
    if (i == 7 || i == 19 || i == 33 || i == 50) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      {
        std::lock_guard<std::mutex> lock(mutex);
        thrown.push_back(i);
      }
      thrown_cv.notify_all();
      throw std::runtime_error(std::to_string(i));
    }
  };

  std::string caught;
  try {
    pool.ParallelFor(64, 0, fn);
  } catch (const std::runtime_error& e) {
    caught = e.what();
  }
  std::lock_guard<std::mutex> lock(mutex);
  ASSERT_FALSE(thrown.empty());
  EXPECT_EQ(caught,
            std::to_string(*std::min_element(thrown.begin(), thrown.end())));
  // Every started call finished before the exception reached the caller.
  EXPECT_EQ(in_flight, 0);
}

TEST(Sweep, NestedAndConcurrentParallelForRunEveryIndexOnce) {
  // Two callers at once on a two-worker pool, each running a full-width
  // ParallelFor whose every index runs another full-width ParallelFor:
  // the pool has far fewer workers than callers waiting on it, so this
  // finishes only because every caller drains its own cursor.
  util::ThreadPool pool(2);
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 16;
  std::vector<std::atomic<int>> runs(2 * kOuter * kInner);
  const auto sweep = [&](std::size_t caller) {
    pool.ParallelFor(kOuter, 0, [&](std::size_t i) {
      pool.ParallelFor(kInner, 0, [&](std::size_t j) {
        runs[(caller * kOuter + i) * kInner + j].fetch_add(1);
      });
    });
  };
  std::thread other(sweep, 1);
  sweep(0);
  other.join();
  for (std::size_t k = 0; k < runs.size(); ++k) {
    EXPECT_EQ(runs[k].load(), 1) << "index " << k;
  }
}

TEST(Dataset, SummaryRoundTrip) {
  SweepOptions options;
  options.packet_count = 80;
  const auto points = RunSweep(SmallConfigSet(), options);

  const auto path =
      (std::filesystem::temp_directory_path() / "wsn_summary.csv").string();
  std::vector<std::string> rows;
  for (const auto& point : points) rows.push_back(SerializeSummaryRow(point));
  WriteSummaryCsvRows(path, rows);
  const auto loaded = ReadSummaryCsv(path);
  ASSERT_EQ(loaded.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(loaded[i].config.pa_level, points[i].config.pa_level);
    EXPECT_NEAR(loaded[i].measured.goodput_kbps,
                points[i].measured.goodput_kbps, 1e-4);
    EXPECT_NEAR(loaded[i].measured.per, points[i].measured.per, 1e-5);
    EXPECT_EQ(loaded[i].measured.delivered_unique,
              points[i].measured.delivered_unique);
  }
  std::filesystem::remove(path);
}

TEST(Dataset, ReadersRejectIntegerCellsTheFieldCannotHold) {
  // Cast straight to its integer field, each of these cells is undefined
  // behaviour or silently truncated; "-1" only for the unsigned and 0/1
  // fields.
  const auto bad_cells = [](bool unsigned_field) {
    std::vector<std::string> cells = {"nan", "inf", "1e30", "2.5"};
    if (unsigned_field) cells.push_back("-1");
    return cells;
  };
  const auto join = [](const std::vector<std::string>& cells) {
    std::string line;
    for (const auto& cell : cells) {
      if (!line.empty()) line += ',';
      line += cell;
    }
    return line;
  };
  const auto path =
      (std::filesystem::temp_directory_path() / "wsn_bad_cells.csv").string();
  const auto write_file = [&path](const std::string& text) {
    std::ofstream(path, std::ios::trunc) << text;
  };

  // Attempt log (what_if_payload <file>): packet_id, attempt,
  // payload_bytes, at_us and the 0/1 flags data_received and acked.
  const std::vector<std::string> attempt_row = {"1",   "1",  "80", "1000",
                                                "-80", "10", "1",  "1"};
  const std::vector<std::string> attempt_columns = {
      "packet_id", "attempt", "payload_bytes", "at_us",
      "rssi_dbm",  "snr_db",  "data_received", "acked"};
  const std::string attempt_header = join(attempt_columns) + "\n";
  write_file(attempt_header + join(attempt_row) + "\n");
  ASSERT_EQ(ReadAttemptLogCsv(path).size(), 1u);
  for (const std::size_t col : {0, 1, 2, 3, 6, 7}) {
    for (const auto& cell : bad_cells(col == 0 || col >= 6)) {
      auto row = attempt_row;
      row[col] = cell;
      write_file(attempt_header + join(row) + "\n");
      EXPECT_THROW((void)ReadAttemptLogCsv(path), std::runtime_error)
          << attempt_columns[col] << " = " << cell;
    }
  }
  // With several bad cells in one row, the error names the first.
  auto probe = attempt_row;
  probe[0] = "-1";
  probe[1] = "nan";
  probe[2] = "1e30";
  probe[3] = "inf";
  write_file(attempt_header + join(probe) + "\n");
  try {
    (void)ReadAttemptLogCsv(path);
    ADD_FAILURE() << "a row with four bad cells was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("packet_id"), std::string::npos)
        << e.what();
  }

  // Summary rows: ParseSummaryRow (checkpoint resume) and ReadSummaryCsv
  // (analyze_campaign <file>).
  const auto summary_row = util::ParseCsvLine(SerializeSummaryRow({}));
  const std::string summary_header = join(SummaryCsvHeaders()) + "\n";
  write_file(summary_header + join(summary_row) + "\n");
  ASSERT_EQ(ReadSummaryCsv(path).size(), 1u);
  ASSERT_NO_THROW((void)ParseSummaryRow(join(summary_row)));
  for (const std::size_t col : {1, 2, 4, 6, 18, 19}) {
    for (const auto& cell : bad_cells(col == 19)) {
      auto row = summary_row;
      row[col] = cell;
      EXPECT_THROW((void)ParseSummaryRow(join(row)), std::runtime_error)
          << SummaryCsvHeaders()[col] << " = " << cell;
      write_file(summary_header + join(row) + "\n");
      EXPECT_THROW((void)ReadSummaryCsv(path), std::runtime_error)
          << SummaryCsvHeaders()[col] << " = " << cell;
    }
  }
  std::filesystem::remove(path);
}

TEST(Dataset, ReadersRejectNonFiniteCells) {
  // Every reader parses numbers with ParseCanonicalDouble, so a NaN or an
  // infinity in a floating-point column is an error, not a value that
  // flows into the fits and tables.
  const auto path =
      (std::filesystem::temp_directory_path() / "wsn_nonfinite.csv").string();
  const auto write_file = [&path](const std::string& text) {
    std::ofstream(path, std::ios::trunc) << text;
  };
  const std::string summary_header = [] {
    std::string line;
    for (const auto& name : SummaryCsvHeaders()) {
      line += (line.empty() ? "" : ",") + name;
    }
    return line + "\n";
  }();
  const auto summary_row = util::ParseCsvLine(SerializeSummaryRow({}));
  const std::size_t energy = 11;
  ASSERT_EQ(SummaryCsvHeaders()[energy], "energy_uj_per_bit");
  for (const std::string cell : {"nan", "inf", "-inf"}) {
    auto cells = summary_row;
    cells[energy] = cell;
    std::string row;
    for (const auto& c : cells) row += (row.empty() ? "" : ",") + c;
    EXPECT_THROW((void)ParseSummaryRow(row), std::runtime_error) << cell;
    write_file(summary_header + row + "\n");
    EXPECT_THROW((void)ReadSummaryCsv(path), std::runtime_error) << cell;
    write_file(
        "packet_id,attempt,payload_bytes,at_us,rssi_dbm,snr_db,"
        "data_received,acked\n1,1,80,1000,-80," +
        cell + ",1,1\n");
    EXPECT_THROW((void)ReadAttemptLogCsv(path), std::runtime_error) << cell;
  }
  std::filesystem::remove(path);
}

TEST(Dataset, ReadSummaryCsvNamesTheFirstWrongHeader) {
  const auto path =
      (std::filesystem::temp_directory_path() / "wsn_header.csv").string();
  auto headers = SummaryCsvHeaders();
  headers[3] = "retry_ms";
  std::string line;
  for (const auto& name : headers) line += (line.empty() ? "" : ",") + name;
  std::ofstream(path, std::ios::trunc) << line << "\n";
  try {
    (void)ReadSummaryCsv(path);
    ADD_FAILURE() << "a renamed column was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("'retry_delay_ms'"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove(path);
}

TEST(Campaign, StridedSubsampleRunsAndWritesCsv) {
  CampaignOptions options;
  options.packet_count = 30;
  options.stride = 1400;  // 48384 / 1400 -> ~35 configs
  options.summary_csv_path =
      (std::filesystem::temp_directory_path() / "wsn_campaign.csv").string();
  const auto result = RunCampaign(options);
  EXPECT_GT(result.configurations, 30u);
  EXPECT_LT(result.configurations, 40u);
  EXPECT_EQ(result.total_packets, result.configurations * 30u);

  const auto loaded = ReadSummaryCsv(options.summary_csv_path);
  EXPECT_EQ(loaded.size(), result.configurations);
  std::filesystem::remove(options.summary_csv_path);
}

TEST(Campaign, InvalidStrideRejected) {
  CampaignOptions options;
  options.stride = 0;
  EXPECT_THROW((void)RunCampaign(options), std::invalid_argument);
}

TEST(Campaign, InvalidCheckpointIntervalRejected) {
  CampaignOptions options;
  options.checkpoint_every = 0;
  EXPECT_THROW((void)RunCampaign(options), std::invalid_argument);
}

TEST(FaultInjection, ThrowingWorkerMarksOnlyThatPointFailed) {
  util::ScopedFaultInjection injection;
  injection->FailNth("sweep.worker", 1);  // second config's worker throws

  SweepOptions options;
  options.packet_count = 50;
  options.threads = 1;  // serial => site ordinals follow config order
  const auto points = RunSweep(SmallConfigSet(), options);
  ASSERT_EQ(points.size(), 3u);

  EXPECT_FALSE(points[0].failed);
  EXPECT_TRUE(points[1].failed);
  EXPECT_FALSE(points[2].failed);
  // The failed point carries a structured error and zeroed metrics but
  // keeps its config; its neighbours are untouched.
  EXPECT_NE(points[1].error.find("sweep.worker"), std::string::npos);
  EXPECT_EQ(points[1].measured.delivered_unique, 0u);
  EXPECT_EQ(points[1].config.pa_level, 19);
  EXPECT_GT(points[0].measured.delivered_unique, 0u);
}

TEST(FaultInjection, CampaignCountsFailuresAndWritesErrorRecords) {
  util::ScopedFaultInjection injection;
  injection->FailNth("sweep.worker", 0);

  CampaignOptions options;
  options.packet_count = 20;
  options.stride = 4000;  // ~13 configs
  options.threads = 1;
  options.summary_csv_path =
      (std::filesystem::temp_directory_path() / "wsn_faulted.csv").string();
  const auto result = RunCampaign(options);

  EXPECT_EQ(result.configs_failed, 1u);
  // The failure is visible in the campaign counter roll-up...
  bool found = false;
  for (const auto& sample : result.counters) {
    if (sample.name == "campaign.configs_failed") {
      found = true;
      EXPECT_EQ(sample.value, 1u);
    }
  }
  EXPECT_TRUE(found);
  // ...and as a structured record next to the summary CSV.
  const std::string errors_path = options.summary_csv_path + ".errors.csv";
  ASSERT_TRUE(std::filesystem::exists(errors_path));
  const auto records = util::ReadCsv(errors_path);
  ASSERT_EQ(records.rows.size(), 1u);
  EXPECT_EQ(records.rows[0][0], "0");
  EXPECT_NE(records.rows[0][1].find("sweep.worker"), std::string::npos);

  std::filesystem::remove(options.summary_csv_path);
  std::filesystem::remove(errors_path);
}

TEST(FaultInjection, SummaryCsvWriteFailureThrowsWithPath) {
  util::ScopedFaultInjection injection;
  injection->FailAfter("csv.write", 0);  // disk full from the first write

  SweepOptions sweep;
  sweep.packet_count = 30;
  const auto points = RunSweep(SmallConfigSet(), sweep);
  const std::string path =
      (std::filesystem::temp_directory_path() / "wsn_enospc.csv").string();
  std::vector<std::string> rows;
  for (const auto& point : points) rows.push_back(SerializeSummaryRow(point));
  try {
    WriteSummaryCsvRows(path, rows);
    FAIL() << "silently truncated summary CSV";
  } catch (const std::runtime_error& e) {
    // The error must name the file so a campaign log points at the bad
    // volume, not just "write failed".
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace wsnlink::experiment
