#include "phy/cc2420.h"

#include <stdexcept>
#include <string>

namespace wsnlink::phy {

namespace {

// CC2420 datasheet, table 9 ("Output power settings"): PA_LEVEL vs output
// power and current consumption at 2.45 GHz.
constexpr std::array<PaLevel, 8> kPaLevels{{
    {3, -25.0, 8.5},
    {7, -15.0, 9.9},
    {11, -10.0, 11.2},
    {15, -7.0, 12.5},
    {19, -5.0, 13.9},
    {23, -3.0, 15.2},
    {27, -1.0, 16.5},
    {31, 0.0, 17.4},
}};

}  // namespace

std::span<const PaLevel> PaLevels() noexcept { return kPaLevels; }

bool IsValidPaLevel(int level) noexcept {
  for (const auto& entry : kPaLevels) {
    if (entry.level == level) return true;
  }
  return false;
}

const PaLevel& LookupPaLevel(int level) {
  for (const auto& entry : kPaLevels) {
    if (entry.level == level) return entry;
  }
  throw std::invalid_argument("LookupPaLevel: invalid PA level " +
                              std::to_string(level));
}

double OutputPowerDbm(int level) { return LookupPaLevel(level).output_dbm; }

double TxPowerMilliwatts(int level) {
  return kSupplyVolts * LookupPaLevel(level).current_ma;
}

double EnergyPerBitMicrojoule(int level) {
  // P[mW] / rate[bit/s] = 1e-3 J/bit units, i.e. *1e3 gives uJ/bit.
  return TxPowerMilliwatts(level) * 1e3 / kDataRateBps;
}

}  // namespace wsnlink::phy
