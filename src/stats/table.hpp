#pragma once

// Result-table construction and rendering.
//
// paper_check prints one table per paper artefact, the run report its
// census and incident tables, and sweep one row per grid cell.  Table
// collects cells row by row and renders them as aligned ASCII.

#include <cstdint>
#include <string>
#include <vector>

namespace hc3i::stats {

/// A simple row-oriented table.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Start a new row; subsequent cell() calls fill it left to right.
  Table& row();
  /// Append a string cell to the current row.
  Table& cell(const std::string& v);
  /// Append an integer cell.
  Table& cell(std::int64_t v);
  /// Append an unsigned cell.
  Table& cell(std::uint64_t v);
  /// Append a floating cell with the given precision.
  Table& cell(double v, int precision = 2);

  /// Cell text at (r, c); empty string if the row is ragged there.
  const std::string& at(std::size_t r, std::size_t c) const;

  /// Render with aligned columns for terminal output.
  std::string to_ascii() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  static const std::string kEmpty;
};

}  // namespace hc3i::stats
