#pragma once

// RcBox — a refcounted heap box one pointer wide, with a plain (non-atomic)
// count.
//
// The sender log (proto::MsgLog) and the dedup set (proto::DedupSet) share
// one buffer with every checkpoint image that captured it (proto::LogImage,
// proto::DedupImage), and every retained CLC holds one image of each per
// node.  A std::shared_ptr handle there is two pointers and an atomic count;
// at the 10x100 pre-GC peak (~2 000 retained CLCs x 100 nodes) the second
// pointer alone is ~3 MB.  RcBox points at one {count, value} block, and
// the count is a plain integer — the discipline of proto::Ddv's spill
// block: a run is single-threaded and shares none of its mutable state
// with another run (driver/sim_context.hpp).
//
// The box does no copy-on-write itself.  Its owners do: a writer checks
// unique() and clones the value before mutating a shared block, so every
// image stays frozen at its capture.

#include <cstdint>
#include <utility>

namespace hc3i {

// GCC 12's -Wuse-after-free path-explores inlined sequences of boxes that
// share one block and flags a read of the count after the branch where an
// earlier release freed it (see proto::Ddv::release): the count makes that
// branch unreachable, and ASan checks it for real.
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuse-after-free"
#endif

/// Shared ownership of one heap-allocated T (null by default).
template <typename T>
class RcBox {
 public:
  RcBox() = default;

  /// A fresh block holding T(args...), owned by the returned box alone.
  template <typename... Args>
  static RcBox make(Args&&... args) {
    RcBox box;
    box.block_ = new Block{1, T(std::forward<Args>(args)...)};
    return box;
  }

  RcBox(const RcBox& o) noexcept : block_(o.block_) {
    if (block_ != nullptr) ++block_->refs;
  }
  RcBox(RcBox&& o) noexcept : block_(std::exchange(o.block_, nullptr)) {}
  RcBox& operator=(RcBox o) noexcept {
    std::swap(block_, o.block_);
    return *this;
  }
  ~RcBox() { reset(); }

  /// Drop this box's reference; the last one frees the block.
  void reset() {
    if (block_ != nullptr && --block_->refs == 0) delete block_;
    block_ = nullptr;
  }

  explicit operator bool() const { return block_ != nullptr; }
  const T& operator*() const { return block_->value; }
  const T* operator->() const { return &block_->value; }
  /// Mutable access; the caller keeps a shared block frozen (unique()).
  T& operator*() { return block_->value; }
  T* operator->() { return &block_->value; }

  /// Boxes holding this block, this one included (0 for a null box).
  std::uint32_t use_count() const {
    return block_ != nullptr ? block_->refs : 0;
  }
  /// True when this box is the block's only holder.
  bool unique() const { return use_count() == 1; }
  /// True when both boxes hold the same (non-null) block.
  bool shares_with(const RcBox& o) const {
    return block_ != nullptr && block_ == o.block_;
  }

 private:
  struct Block {
    std::uint32_t refs;
    T value;
  };
  Block* block_{nullptr};
};

#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#pragma GCC diagnostic pop
#endif

}  // namespace hc3i
