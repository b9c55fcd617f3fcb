#include "experiment/dataset.h"

#include <algorithm>
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

/// Parses a floating-point cell with the tree's one number grammar
/// (util::ParseCanonicalDouble: finite values only), naming the column.
double CellToDouble(const std::string& cell, const std::string& column) {
  try {
    return util::ParseDouble(cell, "dataset column " + column);
  } catch (const std::invalid_argument& e) {
    throw std::runtime_error(e.what());
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

/// A whole column converted to T. Each column is checked whole before the
/// next is read, so an error names the first bad column.
template <typename T>
std::vector<T> IntegerColumn(const util::CsvData& data,
                             const std::string& name) {
  std::vector<T> values;
  for (const double value : data.NumericColumn(name)) {
    values.push_back(ToInteger<T>(value, name));
  }
  return values;
}

/// Decodes one summary row's cells (positional per SummaryCsvHeaders()).
/// ParseSummaryRow and ReadSummaryCsv both decode through here.
SweepPoint DecodeSummaryCells(const std::vector<std::string>& cells,
                              const std::vector<std::string>& headers) {
  if (cells.size() != headers.size()) {
    throw std::runtime_error("summary row: expected " +
                             std::to_string(headers.size()) + " cells, got " +
                             std::to_string(cells.size()));
  }
  const auto cell = [&cells, &headers](std::size_t i) {
    return CellToDouble(cells[i], headers[i]);
  };
  const auto cell_int = [&cell, &headers](std::size_t i) {
    return ToInteger<int>(cell(i), headers[i]);
  };
  SweepPoint p;
  p.config.distance_m = cell(0);
  p.config.pa_level = cell_int(1);
  p.config.max_tries = cell_int(2);
  p.config.retry_delay_ms = cell(3);
  p.config.queue_capacity = cell_int(4);
  p.config.pkt_interval_ms = cell(5);
  p.config.payload_bytes = cell_int(6);
  p.mean_snr_db = cell(7);
  p.measured.per = cell(8);
  p.measured.mean_tries_acked = cell(9);
  p.measured.goodput_kbps = cell(10);
  p.measured.energy_uj_per_bit = cell(11);
  p.measured.mean_delay_ms = cell(12);
  p.measured.mean_service_ms = cell(13);
  p.measured.plr_queue = cell(14);
  p.measured.plr_radio = cell(15);
  p.measured.plr_total = cell(16);
  p.measured.utilization = cell(17);
  p.measured.generated = cell_int(18);
  p.measured.delivered_unique = ToInteger<std::uint64_t>(cell(19), headers[19]);
  p.measured.delay_p50_ms = cell(20);
  p.measured.p99_delay_ms = cell(21);
  p.measured.delay_max_ms = cell(22);
  return p;
}

}  // namespace

std::vector<link::AttemptRecord> ReadAttemptLogCsv(const std::string& path) {
  const auto data = util::ReadCsv(path);
  const auto packet_id = IntegerColumn<std::uint64_t>(data, "packet_id");
  const auto attempt = IntegerColumn<int>(data, "attempt");
  const auto payload = IntegerColumn<int>(data, "payload_bytes");
  const auto at = IntegerColumn<sim::Time>(data, "at_us");
  const auto rssi = data.NumericColumn("rssi_dbm");
  const auto snr = data.NumericColumn("snr_db");
  const auto received = IntegerColumn<bool>(data, "data_received");
  const auto acked = IntegerColumn<bool>(data, "acked");

  std::vector<link::AttemptRecord> records(data.rows.size());
  for (std::size_t i = 0; i < data.rows.size(); ++i) {
    records[i].packet_id = packet_id[i];
    records[i].attempt = attempt[i];
    records[i].payload_bytes = payload[i];
    records[i].at = at[i];
    records[i].rssi_dbm = rssi[i];
    records[i].snr_db = snr[i];
    records[i].data_received = received[i];
    records[i].acked = acked[i];
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
  return DecodeSummaryCells(util::ParseCsvLine(row), SummaryCsvHeaders());
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
  const auto headers = SummaryCsvHeaders();
  if (data.headers != headers) {
    const auto [want, got] = std::mismatch(headers.begin(), headers.end(),
                                           data.headers.begin(),
                                           data.headers.end());
    const auto name = [](const auto it, const auto end) {
      return it == end ? std::string("no column") : "'" + *it + "'";
    };
    throw std::runtime_error(
        "ReadSummaryCsv: " + path + ": column " +
        std::to_string(want - headers.begin() + 1) + " is " +
        name(got, data.headers.end()) + ", expected " +
        name(want, headers.end()));
  }
  std::vector<SweepPoint> points;
  points.reserve(data.rows.size());
  for (const auto& row : data.rows) {
    points.push_back(DecodeSummaryCells(row, headers));
  }
  return points;
}

}  // namespace wsnlink::experiment
