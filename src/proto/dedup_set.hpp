#pragma once

// Receiver-side de-duplication set with copy-on-write capture.
//
// Each node remembers the app_seq of every delivered inter-cluster message
// (re-sent messages racing with their original copy must be dropped, not
// double-delivered; docs/paper_map.md, "Receiver de-duplication").  The set is checked per inter-cluster
// arrival — so membership stays hashed — but it is also part of every
// checkpoint part, and the capture used to deep-copy and sort the whole set
// per node per CLC round.
//
// DedupSet applies the proto::LogImage pattern: capture() returns a shared,
// immutable, sorted DedupImage, built at most once per mutation epoch.  A
// node whose delivered-set did not change between two CLCs (every node that
// receives no inter-cluster traffic — most of a 1000-node federation) pays
// a refcount bump per checkpoint, and copying a part never copies the
// underlying entries.  The handle is one pointer (RcBox): a retained CLC
// keeps one image per node.

#include <algorithm>
#include <cstdint>
#include <unordered_set>
#include <vector>

#include "util/rc_box.hpp"

namespace hc3i::proto {

/// An immutable, sorted, shared snapshot of a DedupSet.  The sort order is
/// part of the bit-reproducibility contract (checkpoint parts are protocol
/// state).
class DedupImage {
 public:
  DedupImage() = default;

  /// The captured app_seqs, ascending (empty for a default image).
  const std::vector<std::uint64_t>& entries() const {
    static const std::vector<std::uint64_t> kEmpty;
    return data_ ? *data_ : kEmpty;
  }
  std::size_t size() const { return data_ ? data_->size() : 0; }

  /// True when two images share one backing buffer (tests assert the
  /// capture-twice-without-mutation case stays shared).
  bool shares_storage_with(const DedupImage& o) const {
    return data_.shares_with(o.data_);
  }

 private:
  friend class DedupSet;
  explicit DedupImage(RcBox<std::vector<std::uint64_t>> d)
      : data_(std::move(d)) {}

  RcBox<std::vector<std::uint64_t>> data_;
};

/// The live, hashed delivered-app_seq set of one node.
class DedupSet {
 public:
  bool contains(std::uint64_t app_seq) const {
    return set_.count(app_seq) > 0;
  }

  void insert(std::uint64_t app_seq) {
    if (set_.insert(app_seq).second) image_.reset();
  }

  std::size_t size() const { return set_.size(); }

  /// Capture as a shared sorted image — O(n log n) on the first capture
  /// after a mutation, O(1) (refcount bump) afterwards.  An empty set
  /// captures as the storage-free default image: most nodes of a large
  /// federation never receive inter-cluster traffic, and their checkpoint
  /// parts must not cost an allocation.
  DedupImage capture() const {
    if (set_.empty()) return DedupImage{};
    if (!image_) {
      auto sorted =
          RcBox<std::vector<std::uint64_t>>::make(set_.begin(), set_.end());
      std::sort(sorted->begin(), sorted->end());
      image_ = std::move(sorted);
    }
    return DedupImage{image_};
  }

  /// Replace the whole set from a captured image (cluster rollback restores
  /// the checkpointed delivered-set).  Adopts the image's buffer as the
  /// capture cache, so the post-rollback checkpoint also captures in O(1).
  void restore(const DedupImage& image) {
    set_.clear();
    set_.insert(image.entries().begin(), image.entries().end());
    image_ = image.data_;
  }

 private:
  // lint: unordered-ok(membership queries only; every ordered consumer —
  // checkpoints, dumps — reads the sorted DedupImage, never this set)
  std::unordered_set<std::uint64_t> set_;
  /// Cached sorted image; null means stale (a mutation happened since the
  /// last capture).  Mutable: capture() is logically const.
  mutable RcBox<std::vector<std::uint64_t>> image_;
};

}  // namespace hc3i::proto
