#pragma once

// Direct Dependencies Vector (DDV), paper §3.2 (after Badrinath & Morin [2]).
//
// For cluster j, DDV[i] is the last sequence number received from cluster i
// (0 if none), and DDV[j] is cluster j's own SN.  "The size of the DDV is
// the number of clusters in the federation, not the number of nodes."
//
// This is the protocol's central type: it lives in agent state, travels in
// every `ClcCommit`, is piggybacked on inter-cluster application messages
// (transitive extension, paper §7), timestamps every stored CLC, and is
// exchanged wholesale by the garbage collector.  A heap-backed std::vector
// here meant one allocation per commit fan-out copy, per piggyback and per
// GC metadata copy.
//
// Storage is therefore inline-small with a refcounted spill, unified from
// the former net::SmallDdv (which this type replaces): up to kInlineEntries
// entries live in-object; wider federations spill to one shared refcounted
// heap block.  Copies never allocate — an inline memcpy or a refcount bump.
// Unlike SmallDdv, a Ddv is mutable: `raise`/`set`/`merge_max` follow the
// copy-on-write discipline of proto::LogImage / proto::DedupImage — a
// mutator that will actually write detaches a shared spill block first, and
// a no-op mutator (raising to a lower value, setting the current value,
// merging an entry-wise-dominated vector) must not pay the copy.  That is
// what lets one representation flow from agent state into commits, committed
// records, piggybacks and GC metadata by plain assignment: in-flight
// snapshots stay frozen because the writer detaches, not the readers.
//
// The spill pointer shares storage with the inline buffer (a union keyed on
// size_), so Ddv is no larger than the std::vector it replaced, and the
// refcount is a plain integer — the simulator is single-threaded, and an
// atomic would put a lock prefix on every envelope copy for nothing.

#include <cstdint>
#include <cstring>
#include <initializer_list>
#include <new>
#include <string>
#include <vector>

#include "util/check.hpp"
#include "util/ids.hpp"

namespace hc3i::proto {

/// A cluster's direct-dependency vector (inline-small, COW spill).
class Ddv {
 public:
  /// Inline capacity: covers the federations the paper evaluates (2-3
  /// clusters) with headroom; beyond this the entries live in a shared
  /// refcounted block.
  static constexpr std::size_t kInlineEntries = 4;

  Ddv() : inline_{} {}
  /// A zero vector for a federation of `clusters` clusters, owned by
  /// `self`: DDV[self] is set to `own_sn`, everything else to 0.
  Ddv(std::size_t clusters, ClusterId self, SeqNum own_sn);
  Ddv(std::initializer_list<SeqNum> init) : Ddv(init.begin(), init.size()) {}
  explicit Ddv(const std::vector<SeqNum>& v) : Ddv(v.data(), v.size()) {}
  Ddv(const SeqNum* data, std::size_t n) : inline_{} { init_members(data, n); }

  Ddv(const Ddv& o) : size_(o.size_) {
    if (spilled()) {
      spill_ = o.spill_;
      ++spill_->refs;
    } else {
      std::memcpy(inline_, o.inline_, sizeof(inline_));
    }
  }

  Ddv(Ddv&& o) noexcept : size_(o.size_) {
    if (spilled()) {
      spill_ = o.spill_;
      o.size_ = 0;
    } else {
      std::memcpy(inline_, o.inline_, sizeof(inline_));
    }
  }

  Ddv& operator=(const Ddv& o) {
    if (this != &o) {
      Ddv tmp(o);
      swap(tmp);
    }
    return *this;
  }

  Ddv& operator=(Ddv&& o) noexcept {
    if (this != &o) {
      release();
      size_ = o.size_;
      if (spilled()) {
        spill_ = o.spill_;
        o.size_ = 0;
      } else {
        std::memcpy(inline_, o.inline_, sizeof(inline_));
      }
    }
    return *this;
  }

  Ddv& operator=(std::initializer_list<SeqNum> init) {
    release();
    init_members(init.begin(), init.size());
    return *this;
  }

  ~Ddv() { release(); }

  /// Entry for cluster i.
  SeqNum at(ClusterId i) const {
    HC3I_CHECK(i.v < size_, "Ddv::at: cluster out of range");
    return data()[i.v];
  }

  /// Update entry for cluster i to max(current, sn); returns true if raised.
  bool raise(ClusterId i, SeqNum sn) {
    HC3I_CHECK(i.v < size_, "Ddv::raise: cluster out of range");
    if (sn <= data()[i.v]) return false;
    mutable_data()[i.v] = sn;
    return true;
  }

  /// Set the owner's entry (kept equal to the cluster SN).
  void set(ClusterId i, SeqNum sn) {
    HC3I_CHECK(i.v < size_, "Ddv::set: cluster out of range");
    if (data()[i.v] == sn) return;  // no-op writes must not detach
    mutable_data()[i.v] = sn;
  }

  /// Merge: entry-wise maximum with another vector of the same size.
  /// O(1) when both share one spill block.  Used by the CLC commit (the
  /// cluster's node views) and the transitive extension (paper §7).
  void merge_max(const Ddv& other);

  /// Number of entries (== number of clusters).
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Raw entries (for serialisation / piggybacking).
  const SeqNum* data() const { return spilled() ? spill_->data() : inline_; }
  const SeqNum* begin() const { return data(); }
  const SeqNum* end() const { return data() + size_; }
  SeqNum operator[](std::size_t i) const { return data()[i]; }

  std::vector<SeqNum> to_vector() const {
    return std::vector<SeqNum>(begin(), end());
  }

  /// True when the entries live in the shared spill block (tests).
  bool spilled() const { return size_ > kInlineEntries; }

  /// True when two spilled instances share one block (tests; always false
  /// for inline instances, which have nothing to share).
  bool shares_storage_with(const Ddv& o) const {
    return spilled() && o.spilled() && spill_ == o.spill_;
  }

  friend bool operator==(const Ddv& a, const Ddv& b) {
    if (a.size_ != b.size_) return false;
    if (a.spilled() && a.spill_ == b.spill_) return true;
    return std::memcmp(a.data(), b.data(), a.size_ * sizeof(SeqNum)) == 0;
  }

  /// "(3, 0, 4)" — rendering used in traces, mirroring the paper's figures.
  std::string to_string() const;

 private:
  /// Header of a heap spill block; the entries follow it in the same
  /// allocation (4-byte aligned either side, so `this + 1` is the array).
  struct Spill {
    std::uint32_t refs;
    static_assert(alignof(SeqNum) <= alignof(std::uint32_t),
                  "spill layout places the entry array right after the "
                  "header; a wider SeqNum needs explicit padding here");
    SeqNum* data() { return reinterpret_cast<SeqNum*>(this + 1); }
    const SeqNum* data() const {
      return reinterpret_cast<const SeqNum*>(this + 1);
    }
  };

  static Spill* alloc_spill(std::size_t n) {
    auto* block = static_cast<Spill*>(
        ::operator new(sizeof(Spill) + n * sizeof(SeqNum)));
    block->refs = 1;
    return block;
  }

  /// Writable view of the entries; detaches (clones) a shared spill block
  /// first, so outstanding snapshots stay frozen (the COW barrier).  Call
  /// only when a write will actually happen.
  SeqNum* mutable_data() {
    if (!spilled()) return inline_;
    if (spill_->refs == 1) return spill_->data();
    Spill* fresh = alloc_spill(size_);
    std::memcpy(fresh->data(), spill_->data(), size_ * sizeof(SeqNum));
    --spill_->refs;
    spill_ = fresh;
    return fresh->data();
  }

  void init_members(const SeqNum* data, std::size_t n) {
    size_ = static_cast<std::uint32_t>(n);
    if (n <= kInlineEntries) {
      std::memset(inline_, 0, sizeof(inline_));
      if (n > 0) std::memcpy(inline_, data, n * sizeof(SeqNum));
      return;
    }
    Spill* block = alloc_spill(n);
    std::memcpy(block->data(), data, n * sizeof(SeqNum));
    spill_ = block;
  }

  // GCC's -Wuse-after-free (new in GCC 12) path-explores sequences of
  // inlined destructors of instances sharing one spill block and flags the
  // branch where an earlier destructor freed the block (refs hit 0) and a
  // later one reads `refs` — a branch the refcount makes unreachable (refs
  // reaches 0 in exactly one destructor).  Suppress just this diagnostic
  // here, only where the warning group exists (an unknown group would
  // itself be a -Werror failure on older GCC / Clang); ASan in CI checks
  // the property for real.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuse-after-free"
#endif
  void release() {
    if (spilled() && --spill_->refs == 0) {
      ::operator delete(spill_);
    }
    size_ = 0;
  }
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#pragma GCC diagnostic pop
#endif

  void swap(Ddv& o) noexcept {
    // Byte-wise member swap: both representations are trivially movable
    // (the union holds either a POD array or a pointer).
    std::uint32_t ts = size_;
    size_ = o.size_;
    o.size_ = ts;
    unsigned char buf[sizeof(inline_)];
    std::memcpy(buf, inline_, sizeof(inline_));
    std::memcpy(inline_, o.inline_, sizeof(inline_));
    std::memcpy(o.inline_, buf, sizeof(inline_));
  }

  std::uint32_t size_{0};
  union {
    SeqNum inline_[kInlineEntries];  ///< active while size_ <= kInlineEntries
    Spill* spill_;                   ///< active while size_ >  kInlineEntries
  };
};

}  // namespace hc3i::proto
