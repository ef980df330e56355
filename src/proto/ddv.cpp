#include "proto/ddv.hpp"

#include <algorithm>

namespace hc3i::proto {

Ddv::Ddv(std::size_t clusters, ClusterId self, SeqNum own_sn) : inline_{} {
  HC3I_CHECK(self.v < clusters, "Ddv: owner out of range");
  size_ = static_cast<std::uint32_t>(clusters);
  if (clusters <= kInlineEntries) {
    inline_[self.v] = own_sn;  // the rest stays zero from the initialiser
    return;
  }
  Spill* block = alloc_spill(clusters);
  std::memset(block->data(), 0, clusters * sizeof(SeqNum));
  block->data()[self.v] = own_sn;
  spill_ = block;
}

void Ddv::merge_max(const Ddv& other) {
  HC3I_CHECK(other.size() == size(), "Ddv::merge_max: size mismatch");
  // One shared block: nothing can rise.  Under HC3I every node of a cluster
  // holds the committed block, so the commit's merge over the cluster's
  // nodes costs O(1) per node.
  if (shares_storage_with(other)) return;
  // Find the first entry that will actually rise before touching the COW
  // barrier: the common case is "nothing to merge" and must stay
  // write-free.
  const SeqNum* theirs = other.data();
  const SeqNum* ours = data();
  std::size_t i = 0;
  while (i < size_ && theirs[i] <= ours[i]) ++i;
  if (i == size_) return;
  // `theirs` stays valid across the detach: the blocks are not shared.
  SeqNum* w = mutable_data();
  for (; i < size_; ++i) w[i] = std::max(w[i], theirs[i]);
}

std::string Ddv::to_string() const {
  std::string out = "(";
  for (std::size_t i = 0; i < size_; ++i) {
    if (i) out += ", ";
    out += std::to_string(data()[i]);
  }
  out += ")";
  return out;
}

}  // namespace hc3i::proto
