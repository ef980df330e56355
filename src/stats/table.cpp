#include "stats/table.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "util/check.hpp"

namespace hc3i::stats {

const std::string Table::kEmpty;

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  HC3I_CHECK(!headers_.empty(), "Table: need at least one column");
}

Table& Table::row() {
  rows_.emplace_back();
  return *this;
}

Table& Table::cell(const std::string& v) {
  HC3I_CHECK(!rows_.empty(), "Table: cell() before row()");
  HC3I_CHECK(rows_.back().size() < headers_.size(),
             "Table: more cells than columns");
  rows_.back().push_back(v);
  return *this;
}

Table& Table::cell(std::int64_t v) { return cell(std::to_string(v)); }
Table& Table::cell(std::uint64_t v) { return cell(std::to_string(v)); }

Table& Table::cell(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return cell(std::string(buf));
}

const std::string& Table::at(std::size_t r, std::size_t c) const {
  HC3I_CHECK(r < rows_.size() && c < headers_.size(), "Table::at out of range");
  if (c >= rows_[r].size()) return kEmpty;
  return rows_[r][c];
}

namespace {
std::vector<std::size_t> column_widths(
    const std::vector<std::string>& headers,
    const std::vector<std::vector<std::string>>& rows) {
  std::vector<std::size_t> w(headers.size());
  for (std::size_t c = 0; c < headers.size(); ++c) w[c] = headers[c].size();
  for (const auto& r : rows) {
    for (std::size_t c = 0; c < r.size(); ++c) {
      w[c] = std::max(w[c], r[c].size());
    }
  }
  return w;
}

/// One line: every cell (a missing one reads as empty) padded to its
/// column's width, two spaces apart, with the trailing blanks trimmed so no
/// line ends in a space.
void put_line(std::ostringstream& os, const std::vector<std::string>& cells,
              const std::vector<std::size_t>& w) {
  std::string line;
  for (std::size_t c = 0; c < w.size(); ++c) {
    const std::size_t start = line.size();
    if (c < cells.size()) line += cells[c];
    line.resize(start + w[c] + 2, ' ');
  }
  line.erase(line.find_last_not_of(' ') + 1);
  os << line << '\n';
}
}  // namespace

std::string Table::to_ascii() const {
  const auto w = column_widths(headers_, rows_);
  std::vector<std::string> rule;
  for (const std::size_t width : w) rule.emplace_back(width, '-');
  std::ostringstream os;
  put_line(os, headers_, w);
  put_line(os, rule, w);
  for (const auto& r : rows_) put_line(os, r, w);
  return os.str();
}

}  // namespace hc3i::stats
