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

std::string pad(const std::string& s, std::size_t width) {
  std::string out = s;
  out.resize(width, ' ');
  return out;
}
}  // namespace

std::string Table::to_ascii() const {
  const auto w = column_widths(headers_, rows_);
  std::ostringstream os;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << pad(headers_[c], w[c]) << (c + 1 < headers_.size() ? "  " : "");
  }
  os << '\n';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    os << std::string(w[c], '-') << (c + 1 < headers_.size() ? "  " : "");
  }
  os << '\n';
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < headers_.size(); ++c) {
      const std::string& v = c < r.size() ? r[c] : kEmpty;
      os << pad(v, w[c]) << (c + 1 < headers_.size() ? "  " : "");
    }
    os << '\n';
  }
  return os.str();
}

}  // namespace hc3i::stats
