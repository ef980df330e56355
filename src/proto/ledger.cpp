#include "proto/ledger.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace hc3i::proto {

std::uint64_t ConsistencyLedger::append(std::uint64_t app_seq, bool delivery,
                                        NodeId owner,
                                        ClusterId owner_cluster) {
  HC3I_CHECK(app_seq >> 63 == 0,
             "ledger: app_seq " + std::to_string(app_seq) +
                 " does not fit the 63-bit event key");
  HC3I_CHECK(owner_cluster.v >> 31 == 0, "ledger: cluster id out of range");
  const std::size_t slot = size_ % kChunkEvents;
  if (slot == 0) chunks_.push_back(std::make_unique_for_overwrite<Chunk>());
  (*chunks_.back())[slot] =
      Event{app_seq << 1 | (delivery ? 1u : 0u), owner, owner_cluster.v << 1};
  return ++size_;
}

template <typename Owned>
void ConsistencyLedger::undo_past(std::uint64_t mark, Owned owned) {
  HC3I_CHECK(mark <= size_, "ledger: undo past a cut not yet recorded");
  // Event i has sequence i + 1, so the events past the cut are the indices
  // [mark, size_); walk them newest first.
  for (std::uint64_t i = size_; i-- > mark;) {
    Event& e = (*chunks_[i / kChunkEvents])[i % kChunkEvents];
    if ((e.cluster_undone & 1u) == 0 && owned(e)) {
      e.cluster_undone |= 1u;
      ++undone_count_;
    }
  }
}

void ConsistencyLedger::undo_after(ClusterId c, std::uint64_t mark) {
  undo_past(mark,
            [c](const Event& e) { return e.cluster_undone >> 1 == c.v; });
}

void ConsistencyLedger::undo_after_node(NodeId n, std::uint64_t mark) {
  undo_past(mark, [n](const Event& e) { return e.owner_node == n; });
}

std::vector<std::string> ConsistencyLedger::validate(
    bool allow_in_flight) const {
  // Flat tally: one packed (app_seq, kind) word per live event, sorted.
  // A hashed tally would allocate one node per distinct message — for a
  // failure-free run that is one allocation per message ever sent, which
  // dominated the allocation count of a whole simulation — while this
  // variant costs one buffer; sorting also yields the app_seq-ordered
  // violation report for free.  Each event already stores its packed
  // (app_seq << 1 | is_delivery) key; append() checks app_seq < 2^63, so
  // the packing is lossless and the walk below decodes runs of one message.
  std::vector<std::uint64_t> keys;
  keys.reserve(size_ - undone_count_);
  for (std::uint64_t i = 0; i < size_; ++i) {
    const Event& e = (*chunks_[i / kChunkEvents])[i % kChunkEvents];
    if ((e.cluster_undone & 1u) == 0) keys.push_back(e.key);
  }
  std::sort(keys.begin(), keys.end());
  std::vector<std::string> violations;
  std::size_t i = 0;
  while (i < keys.size()) {
    const std::uint64_t app_seq = keys[i] >> 1;
    int live_sends = 0;
    int live_deliveries = 0;
    for (; i < keys.size() && (keys[i] >> 1) == app_seq; ++i) {
      if ((keys[i] & 1u) != 0) {
        ++live_deliveries;
      } else {
        ++live_sends;
      }
    }
    if (live_deliveries > 1) {
      violations.push_back("message " + std::to_string(app_seq) +
                           " delivered " + std::to_string(live_deliveries) +
                           " times (duplicate)");
    }
    if (live_deliveries >= 1 && live_sends == 0) {
      violations.push_back("message " + std::to_string(app_seq) +
                           " delivered but its send was rolled back (ghost)");
    }
    if (live_sends >= 1 && live_deliveries == 0 && !allow_in_flight) {
      violations.push_back("message " + std::to_string(app_seq) +
                           " sent but never delivered (lost)");
    }
  }
  return violations;
}

}  // namespace hc3i::proto
