// Golden regression pins: fixed-seed runs must keep producing the same
// numbers. These protect the calibration (DESIGN.md §1) against accidental
// drift — any intentional change to the channel, MAC timing or metric
// definitions must update these values consciously.
//
// Values are pinned with tight relative tolerances rather than exact
// equality so that benign floating-point reassociation (compiler/platform)
// does not trip them, while any behavioural change does.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "experiment/campaign.h"
#include "experiment/contention.h"
#include "metrics/link_metrics.h"
#include "node/link_simulation.h"

namespace wsnlink {
namespace {

constexpr double kTol = 1e-6;  // relative

void ExpectNear(double actual, double pinned, const char* what) {
  EXPECT_NEAR(actual, pinned, std::abs(pinned) * kTol + 1e-12) << what;
}

TEST(Golden, MidLinkReferenceRun) {
  node::SimulationOptions options;
  options.config.distance_m = 25.0;
  options.config.pa_level = 19;
  options.config.max_tries = 3;
  options.config.queue_capacity = 10;
  options.config.pkt_interval_ms = 80.0;
  options.config.payload_bytes = 80;
  options.packet_count = 500;
  options.seed = 123456;
  const auto m = metrics::MeasureConfig(options);

  // Pinned on the calibrated channel (a = 0.0012, b = -0.15, preamble 3 dB)
  // and the TinyOS timing constants. Update deliberately, never casually.
  EXPECT_EQ(m.generated, 500);
  EXPECT_EQ(m.delivered_unique, 495u);
  ExpectNear(m.per, 0.033203125, "per");
  ExpectNear(m.mean_service_ms, 18.112187999999986, "service");
  ExpectNear(m.goodput_kbps, 7.9318694477383325, "goodput");
  ExpectNear(m.energy_uj_per_bit, 0.21350400000000144, "energy");
}

TEST(Golden, GreyZoneReferenceRun) {
  node::SimulationOptions options;
  options.config.distance_m = 35.0;
  options.config.pa_level = 11;
  options.config.max_tries = 8;
  options.config.queue_capacity = 5;
  options.config.pkt_interval_ms = 60.0;
  options.config.payload_bytes = 110;
  options.packet_count = 400;
  options.seed = 654321;
  const auto m = metrics::MeasureConfig(options);

  EXPECT_EQ(m.generated, 400);
  ExpectNear(static_cast<double>(m.delivered_unique), 400.0, "delivered");
  ExpectNear(m.per, 0.19028340080971659, "per");
  ExpectNear(m.mean_tries_acked, 1.2650000000000001, "tries");
  ExpectNear(m.plr_radio, 0.0, "plr_radio");
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// The reference campaign behind tests/golden/campaign_summary.csv: a fixed
// 8-configuration stride through the Table I space. To regenerate after an
// intentional behaviour change, run the `golden_campaign_csv` target's
// recipe (see docs/TRACING.md) or copy the <temp>.csv this test writes.
experiment::CampaignOptions GoldenCampaignOptions() {
  experiment::CampaignOptions options;
  options.stride = options.space.Size() / 8 + 1;
  options.packet_count = 60;
  options.base_seed = 20150629;  // ICDCS'15 opening day
  options.threads = 2;
  return options;
}

TEST(Golden, CampaignSummaryCsvMatchesCheckedInFile) {
  const std::string golden_path =
      std::string(WSNLINK_GOLDEN_DIR) + "/campaign_summary.csv";
  const std::string out_path = testing::TempDir() + "/campaign_summary.csv";

  auto options = GoldenCampaignOptions();
  options.summary_csv_path = out_path;
  const auto result = RunCampaign(options);
  EXPECT_EQ(result.configurations, 8u);

  const std::string expected = ReadFile(golden_path);
  const std::string actual = ReadFile(out_path);
  ASSERT_FALSE(expected.empty())
      << "golden file missing: " << golden_path
      << " — regenerate by copying " << out_path;
  // Byte-identical: the CSV writer formats deterministically
  // (util::FormatDouble with fixed precision), so any diff is a
  // behavioural change that must be reviewed, not noise.
  EXPECT_EQ(actual, expected)
      << "campaign summary drifted; if intentional, refresh "
      << golden_path << " from " << out_path;
  std::remove(out_path.c_str());
}

// The multi-node pin behind tests/golden/contention_ladder.csv: exactly
// what `contention_sweep --nodes 1,2,4,8,16,32 --packets 200 --seed 9
// --csv` writes (tests/golden/regen.sh). Besides the MAC, medium and
// channel, the bytes depend on the kernel's lane tie-break between
// same-time events (sim/simulator.h): with one lane for every node, the
// N=32 row changes.
TEST(Golden, ContentionLadderCsvMatchesCheckedInFile) {
  experiment::ContentionOptions options;
  options.node_counts = {1, 2, 4, 8, 16, 32};
  options.packet_count = 200;
  options.base_seed = 9;
  options.config.distance_m = 20.0;
  options.config.pkt_interval_ms = 25.0;
  std::string actual = experiment::ContentionCsvHeader() + "\n";
  for (const auto& point : experiment::RunContentionSweep(options)) {
    actual += experiment::SerializeContentionRow(point) + "\n";
  }

  const std::string golden_path =
      std::string(WSNLINK_GOLDEN_DIR) + "/contention_ladder.csv";
  const std::string expected = ReadFile(golden_path);
  ASSERT_FALSE(expected.empty()) << "golden file missing: " << golden_path;
  EXPECT_EQ(actual, expected)
      << "contention ladder drifted; if intentional, regenerate "
      << golden_path << " with tests/golden/regen.sh";
}

}  // namespace
}  // namespace wsnlink
