// Unit tests for the util substrate: RNG, statistics, histogram, units,
// tables, CSV.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "util/csv.h"
#include "util/fault_injection.h"
#include "util/histogram.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"

namespace wsnlink::util {
namespace {

// ---------------------------------------------------------------- Rng ----

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 3);
}

TEST(Rng, DeriveIsDeterministicAndIndependent) {
  Rng root(7);
  Rng child1 = root.Derive("channel");
  Rng child2 = Rng(7).Derive("channel");
  EXPECT_EQ(child1(), child2());

  Rng other = root.Derive("mac");
  Rng again = root.Derive("channel");
  // Distinct labels give distinct streams.
  EXPECT_NE(other(), again());
}

TEST(Rng, DeriveDoesNotPerturbParent) {
  Rng a(9);
  Rng b(9);
  (void)a.Derive("x");
  EXPECT_EQ(a(), b());
}

TEST(Rng, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.NextDouble();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, GaussianMomentsRoughlyCorrect) {
  Rng rng(13);
  RunningStats stats;
  for (int i = 0; i < 20000; ++i) stats.Add(rng.Gaussian(5.0, 2.0));
  EXPECT_NEAR(stats.Mean(), 5.0, 0.1);
  EXPECT_NEAR(stats.StdDev(), 2.0, 0.1);
}

TEST(Rng, SkipGaussianDrawsWhatGaussianDraws) {
  Rng drawn(21);
  Rng skipped(21);
  (void)drawn.Gaussian();
  skipped.SkipGaussian();
  for (int i = 0; i < 8; ++i) EXPECT_EQ(drawn(), skipped());
}

TEST(Rng, BernoulliFrequencyMatchesP) {
  Rng rng(17);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.Bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, BernoulliEdgesAreExact) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(Rng, ExponentialMeanMatches) {
  Rng rng(23);
  RunningStats stats;
  for (int i = 0; i < 50000; ++i) stats.Add(rng.Exponential(4.0));
  EXPECT_NEAR(stats.Mean(), 4.0, 0.1);
  EXPECT_GT(stats.Min(), 0.0);
}

// ------------------------------------------------------------- stats ----

TEST(RunningStats, BasicMoments) {
  RunningStats s;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) s.Add(x);
  EXPECT_EQ(s.Count(), 4u);
  EXPECT_DOUBLE_EQ(s.Mean(), 2.5);
  EXPECT_NEAR(s.Variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.Min(), 1.0);
  EXPECT_DOUBLE_EQ(s.Max(), 4.0);
}

TEST(RunningStats, ThrowsOnEmpty) {
  RunningStats s;
  EXPECT_THROW((void)s.Mean(), std::logic_error);
  EXPECT_THROW((void)s.Min(), std::logic_error);
}

TEST(Quantile, InterpolatesBetweenOrderStatistics) {
  const std::vector<double> xs{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(Quantile(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantile(xs, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(Median(xs), 2.5);
}

TEST(FitLine, RecoversExactLine) {
  std::vector<double> xs;
  std::vector<double> ys;
  for (int i = 0; i < 20; ++i) {
    xs.push_back(i);
    ys.push_back(3.0 * i - 7.0);
  }
  const auto fit = FitLine(xs, ys);
  ASSERT_TRUE(fit.has_value());
  EXPECT_NEAR(fit->slope, 3.0, 1e-12);
  EXPECT_NEAR(fit->intercept, -7.0, 1e-10);
  EXPECT_NEAR(fit->r_squared, 1.0, 1e-12);
  EXPECT_NEAR(fit->rmse, 0.0, 1e-10);
}

TEST(FitLine, DegenerateInputsRejected) {
  const std::vector<double> one{1.0};
  EXPECT_FALSE(FitLine(one, one).has_value());
  const std::vector<double> same_x{2.0, 2.0, 2.0};
  const std::vector<double> ys{1.0, 2.0, 3.0};
  EXPECT_FALSE(FitLine(same_x, ys).has_value());
}

// ---------------------------------------------------------- histogram ----

TEST(Histogram, CountsAndEdges) {
  Histogram h(0.0, 10.0, 10);
  h.Add(0.5);
  h.Add(9.99);
  h.Add(-1.0);
  h.Add(10.0);
  EXPECT_EQ(h.Count(0), 1u);
  EXPECT_EQ(h.Count(9), 1u);
  EXPECT_EQ(h.Underflow(), 1u);
  EXPECT_EQ(h.Overflow(), 1u);
  EXPECT_EQ(h.Total(), 4u);
  EXPECT_DOUBLE_EQ(h.BinCenter(0), 0.5);
}

TEST(Histogram, CdfReachesOne) {
  Histogram h(0.0, 1.0, 4);
  for (int i = 0; i < 100; ++i) h.Add(i / 100.0);
  EXPECT_NEAR(h.CdfAtBin(3), 1.0, 1e-12);
}

TEST(Histogram, WeightedAddAndMode) {
  Histogram h(0.0, 3.0, 3);
  h.Add(0.5, 2);
  h.Add(1.5, 5);
  h.Add(2.5, 1);
  EXPECT_EQ(h.ModeBin(), 1u);
  EXPECT_NEAR(h.Fraction(1), 5.0 / 8.0, 1e-12);
}

TEST(Histogram, InvalidConstruction) {
  EXPECT_THROW(Histogram(1.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(Histogram(0.0, 1.0, 0), std::invalid_argument);
}

// -------------------------------------------------------------- units ----

TEST(Units, DbmMilliwattRoundTrip) {
  EXPECT_NEAR(DbmToMilliwatt(0.0), 1.0, 1e-12);
  EXPECT_NEAR(DbmToMilliwatt(10.0), 10.0, 1e-9);
  EXPECT_NEAR(MilliwattToDbm(1.0), 0.0, 1e-12);
  for (const double dbm : {-95.0, -25.0, 0.0, 7.5}) {
    EXPECT_NEAR(MilliwattToDbm(DbmToMilliwatt(dbm)), dbm, 1e-9);
  }
}

TEST(Units, AddPowersDominatedByLarger) {
  // Adding a signal 30 dB below barely moves the total.
  EXPECT_NEAR(AddPowersDbm(0.0, -30.0), 0.0043, 1e-3);
  // Adding two equal powers adds 3 dB.
  EXPECT_NEAR(AddPowersDbm(-95.0, -95.0), -92.0, 0.02);
}

TEST(Units, InvalidArguments) {
  EXPECT_THROW((void)MilliwattToDbm(0.0), std::invalid_argument);
  EXPECT_THROW((void)LinearToDb(-1.0), std::invalid_argument);
}

// -------------------------------------------------------------- table ----

TEST(TextTable, AlignsAndRendersAllRows) {
  TextTable t({"a", "long_header"});
  t.NewRow().Add("x").Add(1.5, 1);
  t.NewRow().Add("yy").Add(22);
  const std::string s = t.ToString();
  EXPECT_NE(s.find("long_header"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
}

TEST(TextTable, RejectsTooManyCells) {
  TextTable t({"only"});
  t.NewRow().Add("1");
  EXPECT_THROW(t.Add("2"), std::logic_error);
}

// ---------------------------------------------------------------- csv ----

TEST(Csv, ParseSimpleLine) {
  const auto cells = ParseCsvLine("a,b,c");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], "a");
  EXPECT_EQ(cells[2], "c");
}

TEST(Csv, ParseQuotedCells) {
  const auto cells = ParseCsvLine(R"("a,b","say ""hi""",plain)");
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0], "a,b");
  EXPECT_EQ(cells[1], "say \"hi\"");
  EXPECT_EQ(cells[2], "plain");
}

TEST(Csv, WriteReadRoundTrip) {
  const auto path =
      (std::filesystem::temp_directory_path() / "wsn_csv_test.csv").string();
  {
    CsvWriter writer(path, {"x", "label"});
    writer.WriteRow({"1.5", "alpha,beta"});
    writer.WriteRow({"2.5", "plain"});
  }
  const auto data = ReadCsv(path);
  ASSERT_EQ(data.rows.size(), 2u);
  EXPECT_EQ(data.rows[0][1], "alpha,beta");
  const auto xs = data.NumericColumn("x");
  EXPECT_DOUBLE_EQ(xs[0], 1.5);
  EXPECT_DOUBLE_EQ(xs[1], 2.5);
  std::filesystem::remove(path);
}

TEST(Csv, NumericColumnRejectsText) {
  const auto path =
      (std::filesystem::temp_directory_path() / "wsn_csv_test2.csv").string();
  {
    CsvWriter writer(path, {"x"});
    writer.WriteRow({"not-a-number"});
  }
  const auto data = ReadCsv(path);
  EXPECT_THROW((void)data.NumericColumn("x"), std::runtime_error);
  EXPECT_THROW((void)data.NumericColumn("missing"), std::out_of_range);
  std::filesystem::remove(path);
}

TEST(Csv, WriterEnforcesColumnCount) {
  const auto path =
      (std::filesystem::temp_directory_path() / "wsn_csv_test3.csv").string();
  CsvWriter writer(path, {"a", "b"});
  EXPECT_THROW(writer.WriteRow({"only-one"}), std::invalid_argument);
  std::filesystem::remove(path);
}

// ------------------------------------------------------ FaultInjection ----

TEST(FaultInjector, DisarmedByDefaultAndNeverFails) {
  ScopedFaultInjection injection;
  EXPECT_FALSE(injection->Armed());
  EXPECT_FALSE(injection->ShouldFail("csv.write"));
  // Unscheduled sites are not even counted.
  EXPECT_EQ(injection->Operations("csv.write"), 0u);
}

TEST(FaultInjector, FailAfterFailsEveryOperationFromThreshold) {
  ScopedFaultInjection injection;
  injection->FailAfter("site", 2);
  EXPECT_TRUE(injection->Armed());
  EXPECT_FALSE(injection->ShouldFail("site"));  // ordinal 0
  EXPECT_FALSE(injection->ShouldFail("site"));  // ordinal 1
  EXPECT_TRUE(injection->ShouldFail("site"));   // ordinal 2: disk now full
  EXPECT_TRUE(injection->ShouldFail("site"));   // ...and stays full
  EXPECT_EQ(injection->Operations("site"), 4u);
  EXPECT_EQ(injection->Injected("site"), 2u);
}

TEST(FaultInjector, FailNthFailsExactlyOne) {
  ScopedFaultInjection injection;
  injection->FailNth("site", 1);
  EXPECT_FALSE(injection->ShouldFail("site"));
  EXPECT_TRUE(injection->ShouldFail("site"));
  EXPECT_FALSE(injection->ShouldFail("site"));
  EXPECT_EQ(injection->Injected("site"), 1u);
}

TEST(FaultInjector, SitesAreIndependent) {
  ScopedFaultInjection injection;
  injection->FailAfter("a", 0);
  EXPECT_TRUE(injection->ShouldFail("a"));
  EXPECT_FALSE(injection->ShouldFail("b"));
}

TEST(FaultInjector, ProbabilityScheduleIsDeterministicInSeed) {
  const auto run = [](std::uint64_t seed) {
    ScopedFaultInjection injection;
    injection->FailWithProbability("site", 0.5, seed);
    std::vector<bool> outcomes;
    for (int i = 0; i < 64; ++i) {
      outcomes.push_back(injection->ShouldFail("site"));
    }
    return outcomes;
  };
  const auto a = run(42);
  EXPECT_EQ(a, run(42));
  EXPECT_NE(a, run(43));
  // p=0.5 over 64 ordinals: both outcomes must actually occur.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), true), 64);
}

TEST(FaultInjector, MaybeThrowRaisesInjectedFaultNamingSite) {
  ScopedFaultInjection injection;
  injection->FailAfter("sweep.worker", 0);
  try {
    injection->MaybeThrow("sweep.worker");
    FAIL() << "expected InjectedFault";
  } catch (const InjectedFault& e) {
    EXPECT_NE(std::string(e.what()).find("sweep.worker"), std::string::npos);
  }
}

TEST(FaultInjector, ScopeClearsSchedulesOnExit) {
  {
    ScopedFaultInjection injection;
    injection->FailAfter("site", 0);
    EXPECT_TRUE(FaultInjector::Global().Armed());
  }
  EXPECT_FALSE(FaultInjector::Global().Armed());
}

TEST(Csv, WriterInjectedWriteFailureThrowsWithPath) {
  ScopedFaultInjection injection;
  // Ordinal 0 is the header row the constructor writes; fail the first
  // data row.
  injection->FailNth("csv.write", 1);
  const std::string path =
      (std::filesystem::temp_directory_path() / "wsn_csv_fault.csv").string();
  CsvWriter writer(path, {"a", "b"});
  try {
    writer.WriteRow({"1", "2"});
    FAIL() << "write failure was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
  std::filesystem::remove(path);
}

TEST(Csv, WriterInjectedCloseFailureThrowsWithPath) {
  ScopedFaultInjection injection;
  injection->FailNth("csv.close", 0);
  const std::string path =
      (std::filesystem::temp_directory_path() / "wsn_csv_close.csv").string();
  CsvWriter writer(path, {"a"});
  writer.WriteRow({"1"});
  try {
    writer.Close();
    FAIL() << "close failure was swallowed";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
  std::filesystem::remove(path);
}

TEST(Csv, WriterRejectsRowsAfterClose) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "wsn_csv_closed.csv").string();
  CsvWriter writer(path, {"a"});
  writer.WriteRow({"1"});
  writer.Close();
  EXPECT_THROW(writer.WriteRow({"2"}), std::logic_error);
  std::filesystem::remove(path);
}

TEST(Csv, WriterOpenFailureNamesPath) {
  const std::string path = "/nonexistent-dir-wsn/out.csv";
  try {
    CsvWriter writer(path, {"a"});
    FAIL() << "open of an unwritable path succeeded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos);
  }
}

}  // namespace
}  // namespace wsnlink::util
