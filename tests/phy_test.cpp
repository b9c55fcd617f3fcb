// Unit tests for the CC2420 PHY model: power table, frame geometry, timing.
#include <gtest/gtest.h>

#include "phy/cc2420.h"
#include "phy/frame.h"
#include "phy/timing.h"
#include "sim/time.h"

namespace wsnlink::phy {
namespace {

// ------------------------------------------------------------- cc2420 ----

TEST(Cc2420, PaLevelTableComplete) {
  const auto levels = PaLevels();
  ASSERT_EQ(levels.size(), 8u);
  EXPECT_EQ(levels.front().level, 3);
  EXPECT_EQ(levels.back().level, 31);
}

TEST(Cc2420, PowerMonotoneInLevel) {
  double prev_dbm = -100.0;
  double prev_ma = 0.0;
  for (const auto& entry : PaLevels()) {
    EXPECT_GT(entry.output_dbm, prev_dbm);
    EXPECT_GT(entry.current_ma, prev_ma);
    prev_dbm = entry.output_dbm;
    prev_ma = entry.current_ma;
  }
}

TEST(Cc2420, DatasheetAnchors) {
  EXPECT_DOUBLE_EQ(OutputPowerDbm(31), 0.0);
  EXPECT_DOUBLE_EQ(OutputPowerDbm(3), -25.0);
  EXPECT_DOUBLE_EQ(OutputPowerDbm(11), -10.0);
  // 3 V * 17.4 mA = 52.2 mW.
  EXPECT_NEAR(TxPowerMilliwatts(31), 52.2, 1e-9);
}

TEST(Cc2420, EnergyPerBitMatchesHandCalc) {
  // 52.2 mW / 250 kbps = 0.2088 uJ/bit.
  EXPECT_NEAR(EnergyPerBitMicrojoule(31), 0.2088, 1e-6);
  // Lowest level: 25.5 mW -> 0.102 uJ/bit.
  EXPECT_NEAR(EnergyPerBitMicrojoule(3), 0.102, 1e-6);
}

TEST(Cc2420, ValidationOfLevels) {
  EXPECT_TRUE(IsValidPaLevel(3));
  EXPECT_TRUE(IsValidPaLevel(31));
  EXPECT_FALSE(IsValidPaLevel(0));
  EXPECT_FALSE(IsValidPaLevel(32));
  EXPECT_FALSE(IsValidPaLevel(5));
  EXPECT_THROW((void)LookupPaLevel(12), std::invalid_argument);
}

// -------------------------------------------------------------- frame ----

TEST(Frame, OverheadGeometry) {
  // 127-byte max MPDU minus 13 bytes overhead = 114-byte max payload —
  // the paper's "maximum payload size in our radio stack".
  EXPECT_EQ(kMaxPayloadBytes, 114);
  EXPECT_EQ(kStackOverheadBytes, 19);
  EXPECT_EQ(DataFrameBytes(114), 133);
  EXPECT_EQ(DataFrameBytes(1), 20);
}

TEST(Frame, PayloadValidation) {
  EXPECT_NO_THROW(ValidatePayloadSize(1));
  EXPECT_NO_THROW(ValidatePayloadSize(114));
  EXPECT_THROW(ValidatePayloadSize(0), std::invalid_argument);
  EXPECT_THROW(ValidatePayloadSize(115), std::invalid_argument);
  EXPECT_THROW(ValidatePayloadSize(-5), std::invalid_argument);
}

TEST(Frame, AirTimeAt250kbps) {
  // 133 bytes * 8 / 250 kb/s = 4.256 ms.
  EXPECT_EQ(DataFrameAirTime(114), sim::FromMilliseconds(4.256));
  // 1 byte = 32 us.
  EXPECT_EQ(AirTime(1), 32);
  // ACK: 11 bytes = 352 us.
  EXPECT_EQ(AckAirTime(), 352);
}

TEST(Frame, AirTimeLinearInBytes) {
  EXPECT_EQ(AirTime(100), 2 * AirTime(50));
  EXPECT_THROW((void)AirTime(0), std::invalid_argument);
}

// ------------------------------------------------------------- timing ----

TEST(Timing, PaperConstants) {
  EXPECT_EQ(kTurnaroundTime, 224);                 // 0.224 ms
  EXPECT_EQ(kAckWaitTimeout, 8192);                // 8.192 ms
  EXPECT_EQ(kAckTime, 1960);                       // ~1.96 ms
  EXPECT_EQ(kInitialBackoffMean, 5280);            // 5.28 ms
  EXPECT_EQ(MeanMacDelay(), 5280 + 224);
}

TEST(Timing, SpiLoadCalibratedTo693At110B) {
  // The Table II calibration point: T_SPI(110 B) ~= 6.93 ms.
  EXPECT_NEAR(sim::ToMilliseconds(SpiLoadTime(110)), 6.93, 0.02);
}

TEST(Timing, SpiLoadGrowsWithPayload) {
  sim::Duration prev = 0;
  for (const int l : {1, 20, 50, 80, 110, 114}) {
    const auto t = SpiLoadTime(l);
    EXPECT_GT(t, prev);
    prev = t;
  }
  EXPECT_THROW((void)SpiLoadTime(0), std::invalid_argument);
}

TEST(Timing, ServiceTimeComponentsForTableII) {
  // First-attempt success at l_D = 110: T_SPI + T_MAC + T_frame + T_ACK
  // should land on the paper's 18.52 ms Table II value.
  const double total_ms = sim::ToMilliseconds(SpiLoadTime(110)) +
                          sim::ToMilliseconds(MeanMacDelay()) +
                          sim::ToMilliseconds(DataFrameAirTime(110)) +
                          sim::ToMilliseconds(kAckTime);
  EXPECT_NEAR(total_ms, 18.52, 0.05);
}

}  // namespace
}  // namespace wsnlink::phy
