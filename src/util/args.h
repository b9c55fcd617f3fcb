// Minimal command-line flag parser for the example/tool binaries.
//
// Supports `--flag value` options (string/double/int/size_t), boolean
// switches (`--verify`), and positional arguments. Each binary lists the
// value flags and switches it reads; any other `--` argument is an error,
// so a mistyped or retired flag never runs a default measurement.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace wsnlink::util {

/// Parsed command line.
class Args {
 public:
  /// Parses argv. `value_flags` lists the flags that take a value,
  /// `switches` the flags that take none. Throws std::invalid_argument,
  /// naming the argument, on a `--` argument in neither list, a value flag
  /// missing its value, or a repeated value flag.
  Args(int argc, const char* const* argv,
       const std::vector<std::string>& value_flags,
       const std::vector<std::string>& switches);

  /// True if the boolean switch was given.
  [[nodiscard]] bool Has(const std::string& flag) const;

  /// Value of `--flag value`, or nullopt if absent.
  [[nodiscard]] std::optional<std::string> Get(const std::string& flag) const;

  /// Typed accessors with defaults. Throw std::invalid_argument when the
  /// value does not parse.
  [[nodiscard]] std::string GetString(const std::string& flag,
                                      const std::string& fallback) const;
  [[nodiscard]] double GetDouble(const std::string& flag,
                                 double fallback) const;
  [[nodiscard]] int GetInt(const std::string& flag, int fallback) const;
  [[nodiscard]] std::size_t GetSize(const std::string& flag,
                                    std::size_t fallback) const;

  /// Like GetInt but additionally rejects values < 1 (count-style flags:
  /// packets, tries, intervals). The fallback is not validated.
  [[nodiscard]] int GetPositiveInt(const std::string& flag, int fallback) const;

  /// Non-flag arguments in order.
  [[nodiscard]] const std::vector<std::string>& Positional() const noexcept {
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> switches_given_;
  std::vector<std::string> positional_;
};

/// Parses a strictly positive integer from the *entire* string: "3" is
/// fine, "" / "abc" / "3x" / "0" / "-2" all throw std::invalid_argument
/// naming `what`. The validated replacement for raw std::atoi on
/// count-style positional arguments (atoi silently yields 0 on garbage).
[[nodiscard]] int ParsePositiveInt(const std::string& value,
                                   const std::string& what);

/// The one canonical number grammar for every double parser in the tree
/// (command-line flags, CSV cells, serve protocol fields): plain decimal or
/// scientific notation over the whole string, finite value. Returns false —
/// without touching `out` — for anything else, including the extensions the
/// C library parsers quietly accept: leading/trailing whitespace, hex
/// floats ("0x1p3"), "inf"/"nan" spellings, a leading '+', trailing
/// garbage, and overflow to infinity.
[[nodiscard]] bool ParseCanonicalDouble(std::string_view text,
                                        double& out) noexcept;

/// Parses a finite double from the *entire* string ("1.5", "-3e2"); "" /
/// "abc" / "1.5x" / "nan" / "inf" / "0x1p3" / " 1.5" all throw
/// std::invalid_argument naming `what`. Thin throwing wrapper over
/// ParseCanonicalDouble — the validated replacement for raw
/// std::strtod/atof (both silently accept trailing garbage, whitespace,
/// hex floats and non-finite values).
[[nodiscard]] double ParseDouble(const std::string& value,
                                 const std::string& what);

}  // namespace wsnlink::util
