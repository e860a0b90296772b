// Minimal CSV reader/writer with RFC-4180 quoting. Used for the WiGLE-style
// AP database import/export and for dumping experiment series alongside the
// console tables.
#pragma once

#include <charconv>
#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace mm::util {

/// One parsed CSV row (fields already unescaped).
using CsvRow = std::vector<std::string>;

/// Escapes a field if it contains separators, quotes, or newlines.
[[nodiscard]] std::string csv_escape(const std::string& field);

/// Joins fields into one CSV line (no trailing newline).
[[nodiscard]] std::string csv_join(const CsvRow& fields);

/// Parses one CSV line into fields, honoring quoted fields with embedded
/// commas and doubled quotes. Throws std::runtime_error on unterminated quotes.
[[nodiscard]] CsvRow csv_parse_line(const std::string& line);

/// Parses a whole field as a double with std::stod's syntax ("nan", "inf"
/// and hex floats included). False for an empty field, trailing characters
/// or an out-of-range value; which finite values make sense is the caller's
/// call.
[[nodiscard]] bool parse_double_field(const std::string& field, double& out);

/// The non-empty items of a `sep`-separated list ("a,,b" -> {"a", "b"});
/// no quoting. For flag and spec lists, not CSV lines.
[[nodiscard]] std::vector<std::string> split_list(std::string_view text, char sep = ',');

/// Parses a whole field as an integer T (std::from_chars, base 10): false
/// for an empty field, any other character (a '+', a space, a '-' for an
/// unsigned T) or an out-of-range value. Doubles go through
/// parse_double_field.
template <typename T>
[[nodiscard]] bool parse_int_field(std::string_view field, T& out) {
  static_assert(std::is_integral_v<T>, "parse_double_field reads doubles");
  const char* end = field.data() + field.size();
  const auto [ptr, ec] = std::from_chars(field.data(), end, out);
  return ec == std::errc{} && ptr == end;
}

/// Writes rows (with optional header as first row) to a file.
void csv_write_file(const std::filesystem::path& path, const std::vector<CsvRow>& rows);

/// Reads all rows of a CSV file. Handles quoted fields spanning one line;
/// throws std::runtime_error if the file cannot be opened.
[[nodiscard]] std::vector<CsvRow> csv_read_file(const std::filesystem::path& path);

}  // namespace mm::util
