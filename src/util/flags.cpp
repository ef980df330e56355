#include "util/flags.hpp"

#include <algorithm>
#include <charconv>
#include <system_error>

#include "util/check.hpp"

namespace hc3i {

Flags Flags::parse(int argc, const char* const* argv) {
  Flags f;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      f.positional_.push_back(std::move(arg));
      continue;
    }
    arg.erase(0, 2);
    if (arg.empty()) throw CheckFailure("bare '--' is not a valid flag");
    // Only --name=value and bare --name (boolean) are supported; the
    // space-separated form is ambiguous next to positional arguments.
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      f.values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else {
      f.values_[arg] = "true";
    }
  }
  return f;
}

std::string Flags::get(const std::string& name, const std::string& def) const {
  const auto it = values_.find(name);
  return it == values_.end() ? def : it->second;
}

std::int64_t Flags::get_int(const std::string& name, std::int64_t def,
                             std::int64_t lo, std::int64_t hi) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& text = it->second;
  std::int64_t v = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), v);
  if (ec != std::errc{} || ptr != text.data() + text.size() || v < lo ||
      v > hi) {
    throw CheckFailure("flag --" + name + " wants an integer in [" +
                       std::to_string(lo) + ", " + std::to_string(hi) +
                       "], got '" + text + "'");
  }
  return v;
}

bool Flags::get_bool(const std::string& name, bool def) const {
  const auto it = values_.find(name);
  if (it == values_.end()) return def;
  const std::string& v = it->second;
  if (v == "true" || v == "1" || v == "yes") return true;
  if (v == "false" || v == "0" || v == "no") return false;
  throw CheckFailure("flag --" + name +
                     " wants true|1|yes|false|0|no, got '" + v + "'");
}

std::vector<std::string> Flags::names() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [k, _] : values_) out.push_back(k);
  return out;
}

std::string Flags::unknown_flag(
    std::initializer_list<std::string_view> known) const {
  for (const auto& [name, _] : values_) {
    if (std::find(known.begin(), known.end(), name) != known.end()) continue;
    std::string msg = "unknown flag --" + name + " (known:";
    for (const std::string_view k : known) {
      msg += " --";
      msg += k;
    }
    return msg + ")";
  }
  return {};
}

}  // namespace hc3i
