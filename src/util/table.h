// Aligned plain-text table rendering for bench output.
//
// Every bench binary prints the rows/series of one paper table or figure;
// this helper keeps them uniformly formatted and diff-friendly.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace wsnlink::util {

/// Column-aligned text table. Cells are strings; numeric helpers format with
/// a fixed precision so benchmark output is stable across runs.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);

  /// Starts a new row. Subsequent Add* calls fill it left to right.
  TextTable& NewRow();

  TextTable& Add(std::string cell);
  TextTable& Add(const char* cell);
  /// Formats with `precision` digits after the decimal point.
  TextTable& Add(double value, int precision = 3);
  TextTable& Add(int value);
  TextTable& Add(long value);
  TextTable& Add(unsigned long value);

  [[nodiscard]] std::size_t RowCount() const noexcept { return rows_.size(); }

  /// Renders with a header underline and two-space column gaps.
  [[nodiscard]] std::string ToString() const;

  /// Renders as CSV (comma-separated; cells containing commas are quoted).
  [[nodiscard]] std::string ToCsv() const;

  friend std::ostream& operator<<(std::ostream& os, const TextTable& t);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Formats a double with fixed precision (helper shared with TextTable).
[[nodiscard]] std::string FormatDouble(double value, int precision);

}  // namespace wsnlink::util
