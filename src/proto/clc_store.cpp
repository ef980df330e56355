#include "proto/clc_store.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hc3i::proto {

namespace {

// Records are stored in strictly increasing SN order (commit() checks it),
// so every SN lookup is a binary search and every drop a prefix or suffix.
constexpr auto kSnBelow = [](const ClcRecord& r, SeqNum sn) {
  return r.sn < sn;
};
constexpr auto kSnAbove = [](SeqNum sn, const ClcRecord& r) {
  return sn < r.sn;
};

/// Modelled bytes of one record across the cluster, replicas included.  A
/// committed record never changes (the snapshot is a value, the log and
/// dedup images are frozen copy-on-write captures), so this is computed
/// once, at commit.
std::uint64_t replicated_bytes(const ClcRecord& r, std::uint32_t replication) {
  std::uint64_t bytes = 0;
  for (const auto& p : r.parts) {
    // Incremental captures store the touched-range delta, full captures
    // the whole state image.
    bytes += p.app.incremental ? p.app.delta_bytes : p.app.state_bytes;
    bytes += p.dedup.size() * sizeof(std::uint64_t);
    for (const auto& e : p.log.entries()) bytes += e.env.wire_bytes();
  }
  for (const auto& ch : r.channel) bytes += ch.wire_bytes();
  return bytes * (1 + replication);
}

}  // namespace

ClcStore::ClcStore(ClusterId cluster, std::uint32_t nodes,
                   std::uint32_t replication)
    : cluster_(cluster), nodes_(nodes), replication_(replication) {
  HC3I_CHECK(nodes_ >= 1, "ClcStore: empty cluster");
  HC3I_CHECK(replication_ < nodes_,
             "ClcStore: replication degree must be below cluster size");
}

void ClcStore::commit(ClcRecord rec) {
  HC3I_CHECK(rec.parts.size() == nodes_,
             "ClcStore: record must carry one part per node");
  HC3I_CHECK(records_.empty() || rec.sn > records_.back().sn,
             "ClcStore: SNs must be strictly increasing");
  HC3I_CHECK(rec.ddv.at(cluster_) == rec.sn,
             "ClcStore: own DDV entry must equal the record SN");
  const std::uint64_t bytes = replicated_bytes(rec, replication_);
  records_.push_back(std::move(rec));
  record_bytes_.push_back(bytes);
  total_bytes_ += bytes;
}

const ClcRecord& ClcStore::last() const {
  HC3I_CHECK(!records_.empty(), "ClcStore: no committed CLC");
  return records_.back();
}

const ClcRecord* ClcStore::find(SeqNum sn) const {
  const auto it =
      std::lower_bound(records_.begin(), records_.end(), sn, kSnBelow);
  return it != records_.end() && it->sn == sn ? &*it : nullptr;
}

std::size_t ClcStore::truncate_after(SeqNum sn) {
  const auto first =
      std::upper_bound(records_.begin(), records_.end(), sn, kSnAbove);
  return erase(static_cast<std::size_t>(first - records_.begin()),
               records_.size());
}

std::size_t ClcStore::prune_before(SeqNum min_sn) {
  const auto last =
      std::lower_bound(records_.begin(), records_.end(), min_sn, kSnBelow);
  return erase(0, static_cast<std::size_t>(last - records_.begin()));
}

std::size_t ClcStore::erase(std::size_t first, std::size_t last) {
  HC3I_CHECK(record_bytes_.size() == records_.size(),
             "ClcStore: byte accounting out of step with the records");
  for (std::size_t i = first; i < last; ++i) total_bytes_ -= record_bytes_[i];
  const auto drop = [first, last](auto& v) {
    v.erase(v.begin() + static_cast<std::ptrdiff_t>(first),
            v.begin() + static_cast<std::ptrdiff_t>(last));
  };
  drop(records_);
  drop(record_bytes_);
  return last - first;
}

std::uint64_t ClcStore::chain_read_bytes(SeqNum sn,
                                         std::uint32_t node_idx) const {
  HC3I_CHECK(node_idx < nodes_, "chain_read_bytes: bad node index");
  const ClcRecord* rec = find(sn);
  HC3I_CHECK(rec != nullptr, "chain_read_bytes: SN not retained");
  const auto at = static_cast<std::size_t>(rec - records_.data());
  std::uint64_t total = 0;
  for (std::size_t i = at + 1; i-- > 0;) {
    const AppSnapshot& app = records_[i].parts[node_idx].app;
    if (!app.incremental) {
      total += app.state_bytes;  // the chain base: stop here
      return total;
    }
    if (i == 0) {
      // The true base was garbage-collected; the oldest retained record was
      // rebased to a full image when its predecessors were pruned.
      total += app.state_bytes;
      return total;
    }
    total += app.delta_bytes;
  }
  return total;
}

}  // namespace hc3i::proto
