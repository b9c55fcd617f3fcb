#include "util/csv.h"

#include <algorithm>
#include <stdexcept>

#include "util/args.h"
#include "util/fault_injection.h"

namespace wsnlink::util {

std::string EscapeCsvCell(std::string_view cell) {
  const bool needs_quote =
      cell.find_first_of(",\"\n\r") != std::string_view::npos;
  if (!needs_quote) return std::string(cell);
  std::string out = "\"";
  for (const char ch : cell) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
  return out;
}

CsvWriter::CsvWriter(const std::string& path, std::vector<std::string> headers)
    : out_(path), path_(path), columns_(headers.size()) {
  if (!out_) throw std::runtime_error("CsvWriter: cannot open " + path);
  if (headers.empty()) throw std::invalid_argument("CsvWriter: no headers");
  WriteCells(headers);
}

CsvWriter::~CsvWriter() {
  // Best-effort close: errors here are invisible (destructors must not
  // throw). Callers that need the disk-full guarantee call Close().
  try {
    Close();
  } catch (...) {  // NOLINT(bugprone-empty-catch)
  }
}

void CsvWriter::WriteRow(const std::vector<std::string>& cells) {
  if (cells.size() != columns_) {
    throw std::invalid_argument("CsvWriter: cell count != header count");
  }
  if (closed_) throw std::logic_error("CsvWriter: write after Close()");
  WriteCells(cells);
}

void CsvWriter::Close() {
  if (closed_) return;
  closed_ = true;
  out_.flush();
  if (FaultInjector::Global().Armed() &&
      FaultInjector::Global().ShouldFail("csv.close")) {
    out_.setstate(std::ios::failbit);
  }
  ThrowIfBad("flush");
  out_.close();
  ThrowIfBad("close");
}

void CsvWriter::WriteCells(const std::vector<std::string>& cells) {
  // A lone empty cell would serialise to an empty line, which CSV readers
  // (this one included) drop as a blank; quote it so the row survives a
  // round trip.
  if (cells.size() == 1 && cells[0].empty()) {
    out_ << "\"\"\n";
  } else {
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (i) out_ << ',';
      out_ << EscapeCsvCell(cells[i]);
    }
    out_ << '\n';
  }
  // ENOSPC model for the robustness tests: an injected failure behaves
  // exactly like the stream reporting a short write.
  if (FaultInjector::Global().Armed() &&
      FaultInjector::Global().ShouldFail("csv.write")) {
    out_.setstate(std::ios::failbit);
  }
  ThrowIfBad("write");
}

void CsvWriter::ThrowIfBad(const char* action) {
  if (!out_) {
    throw std::runtime_error(std::string("CsvWriter: ") + action +
                             " failed for " + path_ +
                             " (disk full or I/O error?)");
  }
}

std::vector<std::string> ParseCsvLine(std::string_view line) {
  std::vector<std::string> cells;
  std::string current;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char ch = line[i];
    if (quoted) {
      if (ch == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        current += ch;
      }
    } else if (ch == '"') {
      quoted = true;
    } else if (ch == ',') {
      cells.push_back(std::move(current));
      current.clear();
    } else {
      current += ch;
    }
  }
  cells.push_back(std::move(current));
  return cells;
}

namespace {

/// Reads one logical CSV record: physical lines are joined (with the '\n'
/// they were split on) while an unclosed quote is open, and any trailing
/// '\r' from CRLF files is stripped per physical line. Returns false at
/// end of input; throws if the input ends inside a quoted cell.
bool ReadCsvRecord(std::istream& in, std::string& record) {
  std::string line;
  if (!std::getline(in, line)) return false;
  record.clear();
  for (;;) {
    const bool had_cr = !line.empty() && line.back() == '\r';
    if (had_cr) line.pop_back();
    record += line;
    // An even number of quote characters means every quoted cell in the
    // record is closed (escaped "" quotes contribute two), so the line
    // break really terminated the record and any CR was CRLF framing.
    if (std::count(record.begin(), record.end(), '"') % 2 == 0) return true;
    // Otherwise the break is *content* of an open quoted cell — put the
    // CR back before joining with the newline it was split on.
    if (had_cr) record += '\r';
    if (!std::getline(in, line)) {
      throw std::runtime_error("ReadCsv: unterminated quoted cell");
    }
    record += '\n';
  }
}

}  // namespace

CsvData ReadCsv(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("ReadCsv: cannot open " + path);
  CsvData data;
  std::string record;
  if (ReadCsvRecord(in, record)) data.headers = ParseCsvLine(record);
  while (ReadCsvRecord(in, record)) {
    if (record.empty()) continue;
    data.rows.push_back(ParseCsvLine(record));
  }
  return data;
}

std::vector<double> CsvData::NumericColumn(std::string_view name) const {
  const auto header = std::find(headers.begin(), headers.end(), name);
  if (header == headers.end()) {
    throw std::out_of_range("CsvData: no column named " + std::string(name));
  }
  const auto col = static_cast<std::size_t>(header - headers.begin());
  std::vector<double> values;
  values.reserve(rows.size());
  for (const auto& row : rows) {
    if (col >= row.size()) throw std::runtime_error("CsvData: short row");
    const std::string& cell = row[col];
    double v{};
    if (!ParseCanonicalDouble(cell, v)) {
      throw std::runtime_error("CsvData: column " + std::string(name) +
                               " holds '" + cell + "', not a finite number");
    }
    values.push_back(v);
  }
  return values;
}

}  // namespace wsnlink::util
