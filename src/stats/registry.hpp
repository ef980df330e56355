#pragma once

// Named metric registry.
//
// Protocol components increment named counters ("clc.forced", "msg.inter",
// "rollback.clusters", ...) without knowing who will read them; benches and
// tests read them by name after the run.  One registry per simulation run —
// never global, so parallel parameter sweeps don't share state.
//
// Hot paths resolve a name ONCE into a handle (`Counter&` / `Summary&`) and
// bump through it; the per-call cost is then a single add, not a string
// construction plus a tree walk.  Names are interned in an open-addressing
// hash table that maps to dense indices; the values live in chunked slabs so
// handles stay valid as the registry grows.  Every write goes through a
// handle; the one name-keyed write left, set(), serves result fields that a
// caller stores once after a run.

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "stats/accumulators.hpp"

namespace hc3i::stats {

/// 64-bit FNV-1a of `bytes`: the name-index hash, and the digest the batch
/// runner reports for each run's dump().
inline std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// A single named counter; obtained from Registry::counter() and valid for
/// the registry's lifetime.
class Counter {
 public:
  /// Add `delta` (monotonic counters).
  void inc(std::uint64_t delta = 1) { v_ += delta; }
  /// Set an absolute value (gauges, e.g. high-water marks).
  void set(std::uint64_t value) { v_ = value; }
  /// Raise to `value` if below it (high-water-mark update).
  void raise(std::uint64_t value) {
    if (value > v_) v_ = value;
  }
  /// Current value.
  std::uint64_t value() const { return v_; }

 private:
  std::uint64_t v_{0};
};

namespace detail {

/// Open-addressing (linear probe, power-of-two capacity) map from interned
/// name to dense index.  Indices are handed out in interning order.
class NameIndex {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  /// Index of `name`, interning it if absent.
  std::uint32_t intern(std::string_view name);
  /// Index of `name`, or kNone — never interns.
  std::uint32_t find(std::string_view name) const;

  const std::vector<std::string>& names() const { return names_; }
  std::size_t size() const { return names_.size(); }

 private:
  void rehash(std::size_t capacity);

  std::vector<std::string> names_;   ///< dense, indexed by interned id
  std::vector<std::uint32_t> slots_; ///< probe table holding index+1 (0=empty)
};

/// Chunked value storage: grows like a vector but never relocates elements,
/// so references into it (the handles) stay valid.
template <typename T>
class Slab {
 public:
  static constexpr std::size_t kChunkShift = 8;  // 256 values per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  /// Element `i`, allocating chunks as needed to cover it.
  T& ensure(std::uint32_t i) {
    const std::size_t chunk = i >> kChunkShift;
    while (chunks_.size() <= chunk) {
      chunks_.push_back(std::make_unique<T[]>(kChunkSize));
    }
    return chunks_[chunk][i & (kChunkSize - 1)];
  }

  const T& at(std::uint32_t i) const {
    return chunks_[i >> kChunkShift][i & (kChunkSize - 1)];
  }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
};

}  // namespace detail

/// Per-run metric registry: monotonically increasing counters plus
/// observation summaries.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry& o) { copy_from(o); }
  Registry& operator=(const Registry& o) {
    if (this != &o) {
      *this = Registry();  // reset via move
      copy_from(o);
    }
    return *this;
  }
  Registry(Registry&&) noexcept = default;
  Registry& operator=(Registry&&) noexcept = default;

  // --- handle API (hot paths: resolve once, bump forever) ---

  /// Handle to a named counter (created at zero on first resolution).  The
  /// reference stays valid for the registry's lifetime.
  Counter& counter(std::string_view name) {
    return counters_.ensure(counter_names_.intern(name));
  }

  /// Handle to a named summary (created empty on first resolution).  The
  /// reference stays valid for the registry's lifetime.
  Summary& summary_handle(std::string_view name) {
    return summaries_.ensure(summary_names_.intern(name));
  }

  // --- name-keyed access over the same storage ---

  /// Set a counter to an absolute value (creates it first).
  void set(std::string_view name, std::uint64_t value) {
    counter(name).set(value);
  }

  /// Current value of a counter (0 if never touched).
  std::uint64_t get(std::string_view name) const;

  /// Read a named summary.  The returned reference is the live slot: a
  /// later add() through a handle of the same name updates what it sees
  /// (reading an untouched name interns an empty summary — count() stays 0
  /// until someone adds to it).
  const Summary& summary(std::string_view name) const {
    return summaries_.ensure(summary_names_.intern(name));
  }

  /// All counter names in lexicographic order (for dumps).
  std::vector<std::string> counter_names() const;

  /// Render every counter as "name = value" lines (debug output).
  std::string dump() const;

 private:
  void copy_from(const Registry& o);

  detail::NameIndex counter_names_;
  mutable detail::NameIndex summary_names_;
  detail::Slab<Counter> counters_;
  // Summaries are interned (not copied) by const reads so the reference a
  // reader holds is the same slot a later handle add() writes — the registry
  // is logically unchanged by the read.
  mutable detail::Slab<Summary> summaries_;
};

/// Resolve-once helper for hot-path handles: `slot` caches the resolved
/// pointer; `make_name` (anything convertible to string_view) is only
/// invoked on first touch, so computed names cost nothing once cached and
/// the metric still only exists once actually bumped.  All lazily-resolved
/// call sites funnel through here — one place to change the idiom.
template <typename MakeName>
Counter& lazy_counter(Registry& reg, Counter*& slot, MakeName&& make_name) {
  if (!slot) slot = &reg.counter(make_name());
  return *slot;
}

/// Summary flavour of lazy_counter().
template <typename MakeName>
Summary& lazy_summary(Registry& reg, Summary*& slot, MakeName&& make_name) {
  if (!slot) slot = &reg.summary_handle(make_name());
  return *slot;
}

}  // namespace hc3i::stats
