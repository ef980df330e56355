#include "proto/msg_log.hpp"

#include <algorithm>

#include "proto/recovery_line.hpp"
#include "util/check.hpp"

namespace hc3i::proto {

void MsgLog::detach() {
  // Null storage means "empty": a mutator about to write needs a buffer.
  // Otherwise a shared buffer means a captured LogImage (or a log restored
  // from one) still references it; clone before mutating so the image
  // stays frozen at its capture state.
  if (!entries_) {
    entries_ = RcBox<std::vector<LogEntry>>::make();
  } else if (!entries_.unique()) {
    entries_ = RcBox<std::vector<LogEntry>>::make(*entries_);
  }
}

void MsgLog::attach_tally(LogTally* tally) {
  HC3I_CHECK(tally != nullptr && tally_ == nullptr,
             "MsgLog: attach exactly one tally");
  tally_ = tally;
  tally_->entries += size();
  tally_->unacked += unacked_;
}

void MsgLog::add(const net::Envelope& env) {
  HC3I_CHECK(!env.intra_cluster(), "MsgLog: only inter-cluster messages are logged");
  HC3I_CHECK(size() == 0 || entries_->back().env.id.v < env.id.v,
             "MsgLog: sends must arrive in MsgId order");
  detach();
  entries_->push_back(LogEntry{env, false, 0, 0});
  ++unacked_;
  if (tally_ != nullptr) {
    ++tally_->entries;
    ++tally_->unacked;
  }
}

void MsgLog::record_ack(MsgId id, SeqNum ack_sn, Incarnation ack_inc) {
  // Locate first; an unknown id must not pay the copy-on-write barrier.
  if (!entries_) return;
  const auto it = std::lower_bound(
      entries_->begin(), entries_->end(), id,
      [](const LogEntry& e, MsgId target) { return e.env.id.v < target.v; });
  if (it == entries_->end() || !(it->env.id == id)) return;
  const std::size_t idx = static_cast<std::size_t>(it - entries_->begin());
  detach();
  LogEntry& e = (*entries_)[idx];
  if (!e.acked) {
    --unacked_;
    if (tally_ != nullptr) --tally_->unacked;
  }
  e.acked = true;
  e.ack_sn = ack_sn;
  e.ack_inc = ack_inc;
}

std::vector<net::Envelope> MsgLog::take_resends(ClusterId dst,
                                                SeqNum restored_sn,
                                                Incarnation new_inc) {
  std::vector<net::Envelope> out;
  if (!entries_) return out;
  auto needs_resend = [&](const LogEntry& e) {
    if (e.env.dst_cluster != dst) return false;
    // An ack proves the delivery survives unless the rollback undid it: a
    // pre-rollback ack from the restored epoch or later.
    return !e.acked ||
           undone_by_rollback(e.ack_sn, e.ack_inc, restored_sn, new_inc);
  };
  for (const auto& e : *entries_) {
    if (needs_resend(e)) out.push_back(e.env);
  }
  if (out.empty()) return out;
  const std::size_t before = size(), unacked_before = unacked_;
  detach();
  entries_->erase(
      std::remove_if(entries_->begin(), entries_->end(), needs_resend),
      entries_->end());
  settle(before, unacked_before);
  return out;
}

std::size_t MsgLog::truncate_from(SeqNum restored_sn) {
  if (!entries_) return 0;
  const auto undone = [&](const LogEntry& e) {
    return e.env.piggy.sn >= restored_sn;
  };
  const std::size_t before = entries_->size(), unacked_before = unacked_;
  if (std::none_of(entries_->begin(), entries_->end(), undone)) return 0;
  detach();
  entries_->erase(std::remove_if(entries_->begin(), entries_->end(), undone),
                  entries_->end());
  settle(before, unacked_before);
  return before - entries_->size();
}

std::size_t MsgLog::prune(ClusterId dst, SeqNum min_sn) {
  if (!entries_) return 0;
  const auto stable = [&](const LogEntry& e) {
    return e.env.dst_cluster == dst && e.acked && e.ack_sn < min_sn;
  };
  const std::size_t before = entries_->size();
  if (std::none_of(entries_->begin(), entries_->end(), stable)) return 0;
  detach();
  entries_->erase(std::remove_if(entries_->begin(), entries_->end(), stable),
                  entries_->end());
  // Pruned entries were all acked, so unacked_ is unchanged.
  if (tally_ != nullptr) tally_->entries -= before - entries_->size();
  return before - entries_->size();
}

void MsgLog::restore(const LogImage& image) {
  // Adopt the shared buffer (or the empty state); detach() protects the
  // image (and any other adopter) if this log mutates later.
  const std::size_t before = size(), unacked_before = unacked_;
  entries_ = image.data_;
  settle(before, unacked_before);
}

void MsgLog::settle(std::size_t entries_before, std::size_t unacked_before) {
  unacked_ = 0;
  for (const auto& e : entries()) unacked_ += e.acked ? 0 : 1;
  if (tally_ == nullptr) return;
  // Sizes are unsigned: adding the wrapped difference is exact either way.
  tally_->entries += size() - entries_before;
  tally_->unacked += unacked_ - unacked_before;
}

std::uint64_t MsgLog::bytes() const {
  std::uint64_t total = 0;
  for (const auto& e : entries()) {
    total += e.env.wire_bytes() + sizeof(SeqNum) + sizeof(Incarnation);
  }
  return total;
}

}  // namespace hc3i::proto
