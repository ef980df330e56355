#include "stats/registry.hpp"

#include <algorithm>
#include <sstream>

#include "util/check.hpp"

namespace hc3i::stats {
namespace detail {

std::uint32_t NameIndex::find(std::string_view name) const {
  if (slots_.empty()) return kNone;
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = fnv1a(name) & mask;; i = (i + 1) & mask) {
    const std::uint32_t slot = slots_[i];
    if (slot == 0) return kNone;
    if (names_[slot - 1] == name) return slot - 1;
  }
}

std::uint32_t NameIndex::intern(std::string_view name) {
  if (slots_.empty()) rehash(16);
  std::size_t mask = slots_.size() - 1;
  std::size_t i = fnv1a(name) & mask;
  for (; slots_[i] != 0; i = (i + 1) & mask) {
    if (names_[slots_[i] - 1] == name) return slots_[i] - 1;
  }
  const auto idx = static_cast<std::uint32_t>(names_.size());
  HC3I_CHECK(idx != kNone, "NameIndex: too many interned names");
  names_.emplace_back(name);
  slots_[i] = idx + 1;
  // Keep the probe table under ~70% load.
  if ((names_.size() + 1) * 10 >= slots_.size() * 7) rehash(slots_.size() * 2);
  return idx;
}

void NameIndex::rehash(std::size_t capacity) {
  slots_.assign(capacity, 0);
  const std::size_t mask = capacity - 1;
  for (std::uint32_t idx = 0; idx < names_.size(); ++idx) {
    std::size_t i = fnv1a(names_[idx]) & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = idx + 1;
  }
}

}  // namespace detail

std::uint64_t Registry::get(std::string_view name) const {
  const std::uint32_t idx = counter_names_.find(name);
  return idx == detail::NameIndex::kNone ? 0 : counters_.at(idx).value();
}

std::vector<std::string> Registry::counter_names() const {
  std::vector<std::string> names = counter_names_.names();
  std::sort(names.begin(), names.end());
  return names;
}

std::string Registry::dump() const {
  // Sorted by name, matching the ordering the registry has always dumped in.
  std::vector<std::uint32_t> order(counter_names_.size());
  for (std::uint32_t i = 0; i < order.size(); ++i) order[i] = i;
  const auto& names = counter_names_.names();
  std::sort(order.begin(), order.end(),
            [&names](std::uint32_t a, std::uint32_t b) {
              return names[a] < names[b];
            });
  std::ostringstream os;
  for (const std::uint32_t i : order) {
    os << names[i] << " = " << counters_.at(i).value() << '\n';
  }
  return os.str();
}

void Registry::copy_from(const Registry& o) {
  for (std::uint32_t i = 0; i < o.counter_names_.size(); ++i) {
    counter(o.counter_names_.names()[i]).set(o.counters_.at(i).value());
  }
  for (std::uint32_t i = 0; i < o.summary_names_.size(); ++i) {
    summary_handle(o.summary_names_.names()[i]) = o.summaries_.at(i);
  }
}

}  // namespace hc3i::stats
