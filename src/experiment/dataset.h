// Dataset export — the synthetic counterpart of the paper's public dataset.
//
// Two CSV schemas:
//  * per-attempt: one row per transmission attempt (packet, attempt index,
//    payload, time, RSSI/SNR, outcome), the trace the offline what-if
//    replay consumes;
//  * per-config:  one summary row per configuration with the measured
//    metric vector, which is what the analysis/fitting stages consume.
//
// The readers reject an integer column whose cell is not a finite integral
// value in the field's range, naming the column.
#pragma once

#include <string>
#include <vector>

#include "experiment/sweep.h"
#include "link/packet_log.h"

namespace wsnlink::experiment {

/// Column headers of the per-attempt schema (the trace the what-if
/// analysis in metrics/what_if.h consumes offline).
[[nodiscard]] std::vector<std::string> AttemptCsvHeaders();

/// Writes one run's attempt log.
void WriteAttemptLogCsv(const std::string& path, const link::PacketLog& log);

/// Reads an attempt log back (inverse of WriteAttemptLogCsv).
[[nodiscard]] std::vector<link::AttemptRecord> ReadAttemptLogCsv(
    const std::string& path);

/// Column headers of the per-config summary schema.
[[nodiscard]] std::vector<std::string> SummaryCsvHeaders();

/// One summary row, serialized exactly as the summary CSV holds it
/// (escaped cells joined by ',', no trailing newline). The campaign checkpoint
/// stores these strings verbatim, which is what makes a resumed run's CSV
/// byte-identical to an uninterrupted one: no parse/re-format round trip.
[[nodiscard]] std::string SerializeSummaryRow(const SweepPoint& point);

/// Inverse of SerializeSummaryRow (columns are positional per
/// SummaryCsvHeaders; only the summary columns are reconstructed). Throws
/// std::runtime_error on a malformed row.
[[nodiscard]] SweepPoint ParseSummaryRow(const std::string& row);

/// Writes a summary CSV from serialized rows (SerializeSummaryRow), in the
/// given order.
void WriteSummaryCsvRows(const std::string& path,
                         const std::vector<std::string>& rows);

/// Reads a summary CSV back into sweep points (inverse of
/// WriteSummaryCsvRows; only the columns the fitters need are
/// reconstructed).
[[nodiscard]] std::vector<SweepPoint> ReadSummaryCsv(const std::string& path);

}  // namespace wsnlink::experiment
