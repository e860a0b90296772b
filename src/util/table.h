// Console table renderer for experiment output. Every bench binary prints the
// rows/series of the paper figure it reproduces through this class, so the
// output format is uniform across the harness.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>
#include <vector>

namespace mm::util {

/// Right-pads/aligns cells and renders an ASCII table with a header rule.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds a row; the row is padded or truncated to the header width.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with the given precision.
  void add_row(const std::vector<double>& cells, int precision = 4);

  [[nodiscard]] std::string to_string() const;
  void print(std::ostream& out) const;

  /// Formats a double with fixed precision (shared helper for cells).
  static std::string fmt(double value, int precision = 4);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace mm::util
