#include "experiment/dataset.h"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string_view>

#include "util/args.h"
#include "util/csv.h"
#include "util/fault_injection.h"
#include "util/table.h"

namespace wsnlink::experiment {

namespace {

std::string Fmt(double v) { return util::FormatDouble(v, 6); }

double CellToDouble(const std::string& cell) {
  // util::ParseDouble is the one sanctioned numeric parser (wsnlint bans
  // raw parsing outside src/util); rewrap its error so callers keep
  // seeing the historical ParseSummaryRow runtime_error.
  try {
    return util::ParseDouble(cell, "summary cell");
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(std::string("ParseSummaryRow: ") + e.what());
  }
}

/// Converts a parsed cell to the integer type of its field. Casting a NaN,
/// infinite, or out-of-range double is undefined behaviour, so anything but
/// a finite integral value that T can hold throws, naming the column.
template <typename T>
T ToInteger(double value, std::string_view column) {
  // T holds exactly the integers in [lowest, 2^digits); both bounds are
  // exact doubles.
  const double lo = static_cast<double>(std::numeric_limits<T>::lowest());
  const double hi = std::ldexp(1.0, std::numeric_limits<T>::digits);
  if (!(value >= lo && value < hi) || std::trunc(value) != value) {
    throw std::runtime_error("dataset column " + std::string(column) +
                             " holds " + Fmt(value) +
                             ", not an integer in range");
  }
  return static_cast<T>(value);
}

}  // namespace

std::vector<std::string> AttemptCsvHeaders() {
  return {"packet_id", "attempt", "payload_bytes", "at_us",
          "rssi_dbm",  "snr_db",  "data_received", "acked"};
}

void WriteAttemptLogCsv(const std::string& path, const link::PacketLog& log) {
  util::CsvWriter writer(path, AttemptCsvHeaders());
  for (const auto& a : log.Attempts()) {
    writer.WriteRow({
        std::to_string(a.packet_id),
        std::to_string(a.attempt),
        std::to_string(a.payload_bytes),
        std::to_string(a.at),
        Fmt(a.rssi_dbm),
        Fmt(a.snr_db),
        a.data_received ? "1" : "0",
        a.acked ? "1" : "0",
    });
  }
  writer.Close();
}

std::vector<link::AttemptRecord> ReadAttemptLogCsv(const std::string& path) {
  const auto data = util::ReadCsv(path);
  const auto packet_id = data.NumericColumn("packet_id");
  const auto attempt = data.NumericColumn("attempt");
  const auto payload = data.NumericColumn("payload_bytes");
  const auto at = data.NumericColumn("at_us");
  const auto rssi = data.NumericColumn("rssi_dbm");
  const auto snr = data.NumericColumn("snr_db");
  const auto received = data.NumericColumn("data_received");
  const auto acked = data.NumericColumn("acked");

  std::vector<link::AttemptRecord> records(data.rows.size());
  for (std::size_t i = 0; i < data.rows.size(); ++i) {
    records[i].packet_id = ToInteger<std::uint64_t>(packet_id[i], "packet_id");
    records[i].attempt = ToInteger<int>(attempt[i], "attempt");
    records[i].payload_bytes = ToInteger<int>(payload[i], "payload_bytes");
    records[i].at = ToInteger<sim::Time>(at[i], "at_us");
    records[i].rssi_dbm = rssi[i];
    records[i].snr_db = snr[i];
    records[i].data_received = ToInteger<bool>(received[i], "data_received");
    records[i].acked = ToInteger<bool>(acked[i], "acked");
  }
  return records;
}

std::vector<std::string> SummaryCsvHeaders() {
  return {"distance_m",   "pa_level",      "max_tries",     "retry_delay_ms",
          "queue_cap",    "pkt_interval_ms", "payload_bytes", "mean_snr_db",
          "per",          "mean_tries_acked", "goodput_kbps", "energy_uj_per_bit",
          "mean_delay_ms", "mean_service_ms", "plr_queue",    "plr_radio",
          "plr_total",    "utilization",   "generated",     "delivered",
          "delay_p50_ms", "delay_p99_ms",  "delay_max_ms"};
}

std::string SerializeSummaryRow(const SweepPoint& point) {
  const auto& c = point.config;
  const auto& m = point.measured;
  const std::vector<std::string> cells = {
      Fmt(c.distance_m),
      std::to_string(c.pa_level),
      std::to_string(c.max_tries),
      Fmt(c.retry_delay_ms),
      std::to_string(c.queue_capacity),
      Fmt(c.pkt_interval_ms),
      std::to_string(c.payload_bytes),
      Fmt(point.mean_snr_db),
      Fmt(m.per),
      Fmt(m.mean_tries_acked),
      Fmt(m.goodput_kbps),
      Fmt(m.energy_uj_per_bit),
      Fmt(m.mean_delay_ms),
      Fmt(m.mean_service_ms),
      Fmt(m.plr_queue),
      Fmt(m.plr_radio),
      Fmt(m.plr_total),
      Fmt(m.utilization),
      std::to_string(m.generated),
      std::to_string(m.delivered_unique),
      Fmt(m.delay_p50_ms),
      Fmt(m.p99_delay_ms),
      Fmt(m.delay_max_ms),
  };
  std::string row;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i) row += ',';
    row += util::EscapeCsvCell(cells[i]);
  }
  return row;
}

SweepPoint ParseSummaryRow(const std::string& row) {
  const auto cells = util::ParseCsvLine(row);
  const auto headers = SummaryCsvHeaders();
  if (cells.size() != headers.size()) {
    throw std::runtime_error("ParseSummaryRow: expected " +
                             std::to_string(headers.size()) + " cells, got " +
                             std::to_string(cells.size()));
  }
  const auto cell_int = [&cells, &headers](std::size_t i) {
    return ToInteger<int>(CellToDouble(cells[i]), headers[i]);
  };
  SweepPoint p;
  p.config.distance_m = CellToDouble(cells[0]);
  p.config.pa_level = cell_int(1);
  p.config.max_tries = cell_int(2);
  p.config.retry_delay_ms = CellToDouble(cells[3]);
  p.config.queue_capacity = cell_int(4);
  p.config.pkt_interval_ms = CellToDouble(cells[5]);
  p.config.payload_bytes = cell_int(6);
  p.mean_snr_db = CellToDouble(cells[7]);
  p.measured.per = CellToDouble(cells[8]);
  p.measured.mean_tries_acked = CellToDouble(cells[9]);
  p.measured.goodput_kbps = CellToDouble(cells[10]);
  p.measured.energy_uj_per_bit = CellToDouble(cells[11]);
  p.measured.mean_delay_ms = CellToDouble(cells[12]);
  p.measured.mean_service_ms = CellToDouble(cells[13]);
  p.measured.plr_queue = CellToDouble(cells[14]);
  p.measured.plr_radio = CellToDouble(cells[15]);
  p.measured.plr_total = CellToDouble(cells[16]);
  p.measured.utilization = CellToDouble(cells[17]);
  p.measured.generated = cell_int(18);
  p.measured.delivered_unique =
      ToInteger<std::uint64_t>(CellToDouble(cells[19]), headers[19]);
  p.measured.delay_p50_ms = CellToDouble(cells[20]);
  p.measured.p99_delay_ms = CellToDouble(cells[21]);
  p.measured.delay_max_ms = CellToDouble(cells[22]);
  return p;
}

void WriteSummaryCsvRows(const std::string& path,
                         const std::vector<std::string>& rows) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("WriteSummaryCsvRows: cannot open " + path);
  }
  const auto check = [&out, &path](const char* action) {
    auto& injector = util::FaultInjector::Global();
    if (injector.Armed() && injector.ShouldFail("csv.write")) {
      out.setstate(std::ios::failbit);
    }
    if (!out) {
      throw std::runtime_error(std::string("WriteSummaryCsvRows: ") + action +
                               " failed for " + path +
                               " (disk full or I/O error?)");
    }
  };
  const auto headers = SummaryCsvHeaders();
  for (std::size_t i = 0; i < headers.size(); ++i) {
    if (i) out << ',';
    out << util::EscapeCsvCell(headers[i]);
  }
  out << '\n';
  check("write");
  for (const auto& row : rows) {
    out << row << '\n';
    check("write");
  }
  out.flush();
  check("flush");
}

std::vector<SweepPoint> ReadSummaryCsv(const std::string& path) {
  const auto data = util::ReadCsv(path);
  const auto distance = data.NumericColumn("distance_m");
  const auto pa = data.NumericColumn("pa_level");
  const auto tries = data.NumericColumn("max_tries");
  const auto retry = data.NumericColumn("retry_delay_ms");
  const auto qcap = data.NumericColumn("queue_cap");
  const auto interval = data.NumericColumn("pkt_interval_ms");
  const auto payload = data.NumericColumn("payload_bytes");
  const auto snr = data.NumericColumn("mean_snr_db");
  const auto per = data.NumericColumn("per");
  const auto mean_tries = data.NumericColumn("mean_tries_acked");
  const auto goodput = data.NumericColumn("goodput_kbps");
  const auto energy = data.NumericColumn("energy_uj_per_bit");
  const auto delay = data.NumericColumn("mean_delay_ms");
  const auto service = data.NumericColumn("mean_service_ms");
  const auto plr_queue = data.NumericColumn("plr_queue");
  const auto plr_radio = data.NumericColumn("plr_radio");
  const auto plr_total = data.NumericColumn("plr_total");
  const auto util_col = data.NumericColumn("utilization");
  const auto generated = data.NumericColumn("generated");
  const auto delivered = data.NumericColumn("delivered");
  const auto delay_p50 = data.NumericColumn("delay_p50_ms");
  const auto delay_p99 = data.NumericColumn("delay_p99_ms");
  const auto delay_max = data.NumericColumn("delay_max_ms");

  std::vector<SweepPoint> points(data.rows.size());
  for (std::size_t i = 0; i < data.rows.size(); ++i) {
    auto& p = points[i];
    p.config.distance_m = distance[i];
    p.config.pa_level = ToInteger<int>(pa[i], "pa_level");
    p.config.max_tries = ToInteger<int>(tries[i], "max_tries");
    p.config.retry_delay_ms = retry[i];
    p.config.queue_capacity = ToInteger<int>(qcap[i], "queue_cap");
    p.config.pkt_interval_ms = interval[i];
    p.config.payload_bytes = ToInteger<int>(payload[i], "payload_bytes");
    p.mean_snr_db = snr[i];
    p.measured.per = per[i];
    p.measured.mean_tries_acked = mean_tries[i];
    p.measured.goodput_kbps = goodput[i];
    p.measured.energy_uj_per_bit = energy[i];
    p.measured.mean_delay_ms = delay[i];
    p.measured.mean_service_ms = service[i];
    p.measured.plr_queue = plr_queue[i];
    p.measured.plr_radio = plr_radio[i];
    p.measured.plr_total = plr_total[i];
    p.measured.utilization = util_col[i];
    p.measured.generated = ToInteger<int>(generated[i], "generated");
    p.measured.delivered_unique =
        ToInteger<std::uint64_t>(delivered[i], "delivered");
    p.measured.delay_p50_ms = delay_p50[i];
    p.measured.p99_delay_ms = delay_p99[i];
    p.measured.delay_max_ms = delay_max[i];
  }
  return points;
}

}  // namespace wsnlink::experiment
