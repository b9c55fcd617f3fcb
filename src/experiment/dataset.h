// Dataset export — the synthetic counterpart of the paper's public dataset.
//
// Two CSV schemas:
//  * per-attempt: one row per transmission attempt (packet, attempt index,
//    payload, time, RSSI/SNR, outcome), the trace the offline what-if
//    replay consumes; it is read, never written;
//  * per-config:  one summary row per configuration with the measured
//    metric vector, which is what the analysis/fitting stages consume.
//
// The readers parse numbers with util::ParseCanonicalDouble, so NaN and
// infinite cells are rejected, and they reject an integer column whose cell
// is not an integral value in the field's range, naming the column.
#pragma once

#include <string>
#include <vector>

#include "experiment/sweep.h"
#include "link/packet_log.h"

namespace wsnlink::experiment {

/// Reads a per-attempt trace (the input of the what-if analysis in
/// metrics/what_if.h) with the columns packet_id, attempt, payload_bytes,
/// at_us, rssi_dbm, snr_db, data_received and acked, in any order. No
/// binary writes this schema: traces come from outside the repository.
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
/// std::runtime_error on a malformed row, naming the first bad column.
[[nodiscard]] SweepPoint ParseSummaryRow(const std::string& row);

/// Writes a summary CSV from serialized rows (SerializeSummaryRow), in the
/// given order.
void WriteSummaryCsvRows(const std::string& path,
                         const std::vector<std::string>& rows);

/// Reads a summary CSV back into sweep points (inverse of
/// WriteSummaryCsvRows). The header must equal SummaryCsvHeaders() (the
/// error names the first column that differs), and every row is decoded
/// exactly as ParseSummaryRow decodes it.
[[nodiscard]] std::vector<SweepPoint> ReadSummaryCsv(const std::string& path);

}  // namespace wsnlink::experiment
