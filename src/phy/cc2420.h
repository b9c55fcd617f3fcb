// TI CC2420 radio model.
//
// The paper's motes are TelosB boards with a CC2420 transceiver; the PHY
// parameter it tunes is the PA_LEVEL register (P_tx in {3, 7, ..., 31}).
// This module encodes the datasheet mapping from PA_LEVEL to output power
// and supply current, and derives the per-bit transmit energy E_tx used by
// the paper's energy model (Eq. 2).
#pragma once

#include <array>
#include <span>

namespace wsnlink::phy {

/// 802.15.4 2.4 GHz PHY data rate (bits per second).
inline constexpr double kDataRateBps = 250'000.0;

/// TelosB supply voltage used for energy accounting (volts).
inline constexpr double kSupplyVolts = 3.0;

/// CC2420 receiver sensitivity, dBm (datasheet typical).
inline constexpr double kSensitivityDbm = -95.0;

/// One PA_LEVEL entry of the CC2420 datasheet table.
struct PaLevel {
  int level;            ///< PA_LEVEL register value (the paper's P_tx).
  double output_dbm;    ///< RF output power.
  double current_ma;    ///< Supply current while transmitting.
};

/// The eight PA levels the paper sweeps, in increasing power.
[[nodiscard]] std::span<const PaLevel> PaLevels() noexcept;

/// True if `level` is one of the valid swept PA levels.
[[nodiscard]] bool IsValidPaLevel(int level) noexcept;

/// Datasheet entry for a PA level; throws std::invalid_argument otherwise.
[[nodiscard]] const PaLevel& LookupPaLevel(int level);

/// RF output power in dBm for a PA level.
[[nodiscard]] double OutputPowerDbm(int level);

/// Transmit-mode supply power in milliwatts for a PA level.
[[nodiscard]] double TxPowerMilliwatts(int level);

/// Energy to transmit one bit at a PA level, in microjoules
/// (supply power / data rate). This is the E_tx of the paper's Eq. (2).
[[nodiscard]] double EnergyPerBitMicrojoule(int level);

/// Receive-mode supply current (datasheet: 18.8 mA), for idle-listening
/// energy accounting in extended studies.
inline constexpr double kRxCurrentMa = 18.8;

}  // namespace wsnlink::phy
