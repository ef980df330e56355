#pragma once

// Result-table construction and rendering.
//
// paper_check prints one table per paper artefact, and the run report its
// incident table.  Table collects cells row by row and renders aligned ASCII
// (for the console), Markdown (for EXPERIMENTS.md) and CSV (for plotting).

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

  std::size_t rows() const { return rows_.size(); }
  std::size_t columns() const { return headers_.size(); }
  /// Cell text at (r, c); empty string if the row is ragged there.
  const std::string& at(std::size_t r, std::size_t c) const;

  /// Render with aligned columns for terminal output.
  std::string to_ascii() const;
  /// Render as a GitHub-flavoured Markdown table.
  std::string to_markdown() const;
  /// Render as CSV (RFC-4180 quoting for cells containing commas/quotes).
  std::string to_csv() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
  static const std::string kEmpty;
};

}  // namespace hc3i::stats
