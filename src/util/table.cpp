#include "util/table.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace wsnlink::util {

std::string FormatDouble(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {
  if (headers_.empty()) throw std::invalid_argument("TextTable: no headers");
}

TextTable& TextTable::NewRow() {
  rows_.emplace_back();
  return *this;
}

TextTable& TextTable::Add(std::string cell) {
  if (rows_.empty()) NewRow();
  if (rows_.back().size() >= headers_.size()) {
    throw std::logic_error("TextTable: row has more cells than headers");
  }
  rows_.back().push_back(std::move(cell));
  return *this;
}

TextTable& TextTable::Add(const char* cell) { return Add(std::string(cell)); }

TextTable& TextTable::Add(double value, int precision) {
  return Add(FormatDouble(value, precision));
}

TextTable& TextTable::Add(int value) { return Add(std::to_string(value)); }
TextTable& TextTable::Add(long value) { return Add(std::to_string(value)); }
TextTable& TextTable::Add(unsigned long value) { return Add(std::to_string(value)); }

std::string TextTable::ToString() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::string out;
  const auto emit_row = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& cell = c < cells.size() ? cells[c] : std::string();
      out += cell;
      if (c + 1 < headers_.size()) {
        out.append(widths[c] - cell.size() + 2, ' ');
      }
    }
    out += '\n';
  };

  emit_row(headers_);
  std::size_t rule = 0;
  for (std::size_t c = 0; c < widths.size(); ++c) {
    rule += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  }
  out.append(rule, '-');
  out += '\n';
  for (const auto& row : rows_) emit_row(row);
  return out;
}

std::ostream& operator<<(std::ostream& os, const TextTable& t) {
  return os << t.ToString();
}

}  // namespace wsnlink::util
