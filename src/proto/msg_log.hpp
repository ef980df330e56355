#pragma once

// Sender-side optimistic message log (paper §3.3).
//
// "When a message is sent outside a cluster, the sender logs it
// optimistically in its volatile memory (logged messages are used only if
// the sender does not rollback).  The message is acknowledged with the
// receiver's SN which is logged along with the message itself."
//
// Entries record the acknowledging incarnation too (docs/paper_map.md,
// "Incarnations"): after a rollback alert (f, restored_sn, new_inc) the
// sender re-sends the logged messages to f that are unacknowledged, or
// whose ack that rollback undid (undone_by_rollback).

#include <cstdint>
#include <vector>

#include "net/message.hpp"
#include "util/ids.hpp"
#include "util/rc_box.hpp"

namespace hc3i::proto {

/// One logged inter-cluster message.
struct LogEntry {
  net::Envelope env;          ///< the original send (payload + piggyback)
  bool acked{false};
  SeqNum ack_sn{0};           ///< receiver cluster's SN at delivery
  Incarnation ack_inc{0};     ///< receiver cluster's incarnation at delivery
};

/// An immutable shared snapshot of a sender log, captured at CLC time.
///
/// Capturing is O(1): the image shares the log's backing storage, and the
/// live MsgLog copies that storage lazily before its next mutation
/// (copy-on-write).  A node whose log did not change between two CLCs —
/// the common case for the many nodes that never send inter-cluster —
/// therefore pays nothing per checkpoint, and copying an image is a
/// refcount bump, not a deep copy.  The handle is one pointer (RcBox): a
/// retained CLC keeps one image per node.
class LogImage {
 public:
  LogImage() = default;

  /// The captured entries (empty for a default-constructed image).
  const std::vector<LogEntry>& entries() const {
    static const std::vector<LogEntry> kEmpty;
    return data_ ? *data_ : kEmpty;
  }
  std::size_t size() const { return data_ ? data_->size() : 0; }

  /// True when two images share one backing buffer (tests assert the
  /// capture-twice-without-mutation case stays shared).
  bool shares_storage_with(const LogImage& o) const {
    return data_.shares_with(o.data_);
  }

 private:
  friend class MsgLog;
  explicit LogImage(RcBox<std::vector<LogEntry>> d) : data_(std::move(d)) {}

  RcBox<std::vector<LogEntry>> data_;
};

/// Running entry counts summed over several logs.  Hc3iRuntime keeps one
/// per cluster, so the log high-water (read on every inter-cluster send)
/// costs O(1) rather than a walk over the cluster's nodes.
struct LogTally {
  std::size_t entries{0};
  std::size_t unacked{0};
};

/// A node's volatile log of its own inter-cluster sends.
class MsgLog {
 public:
  MsgLog() = default;
  // A copy would report into the same tally twice.
  MsgLog(const MsgLog&) = delete;
  MsgLog& operator=(const MsgLog&) = delete;

  /// Add this log's counts to `tally` and keep it in step with every later
  /// change of size() and unacked_count().  `tally` must outlive the log.
  void attach_tally(LogTally* tally);

  /// Log a freshly sent message.
  void add(const net::Envelope& env);

  /// Record the receiver's acknowledgement for message `id`.
  /// Unknown ids are ignored (the entry may have been pruned by GC or
  /// truncated by a local rollback — both make the ack moot).
  void record_ack(MsgId id, SeqNum ack_sn, Incarnation ack_inc);

  /// Envelopes to re-send after rollback alert (dst, restored_sn, new_inc).
  /// Marks nothing; the caller re-sends and the new transmissions get
  /// logged as fresh entries, so the old entries are dropped here.
  std::vector<net::Envelope> take_resends(ClusterId dst, SeqNum restored_sn,
                                          Incarnation new_inc);

  /// Local rollback to SN `restored_sn`: drop entries whose send happened
  /// at or after the restored checkpoint (piggyback SN >= restored_sn) —
  /// those sends are undone and will be re-executed by the application.
  std::size_t truncate_from(SeqNum restored_sn);

  /// Garbage collection (paper §3.5): drop entries to cluster `dst` that
  /// are acknowledged with an SN strictly below `min_sn` — cluster `dst`
  /// can never roll back past min_sn, so those deliveries are stable.
  std::size_t prune(ClusterId dst, SeqNum min_sn);

  /// Number of live entries.
  std::size_t size() const { return entries_ ? entries_->size() : 0; }
  /// Entries whose acknowledgement has not arrived yet (messages whose
  /// delivery is still unconfirmed — the paper's §5.4 "logged messages"
  /// high-water counts these).  Maintained incrementally: the high-water
  /// instrumentation reads this on every inter-cluster send.
  std::size_t unacked_count() const { return unacked_; }
  /// Modelled bytes held by the log.
  std::uint64_t bytes() const;
  /// Read-only view (tests, checkpoint capture).
  const std::vector<LogEntry>& entries() const {
    static const std::vector<LogEntry> kEmpty;
    return entries_ ? *entries_ : kEmpty;
  }
  /// Capture the log as a shared immutable image — O(1); the live log
  /// detaches (copies) lazily before its next mutation.
  LogImage capture() const { return LogImage{entries_}; }
  /// Replace the whole log from a captured image (restoring a failed node
  /// from its checkpointed log copy, docs/paper_map.md).  Adopts the image's
  /// storage without copying; a later mutation detaches first.
  void restore(const LogImage& image);

 private:
  /// Recount unacked_ from the entries, then post the change since
  /// (`entries_before`, `unacked_before`) to the tally.
  void settle(std::size_t entries_before, std::size_t unacked_before);
  /// Copy-on-write barrier: clone the backing storage iff it is shared
  /// with a captured image (or another log restored from one).
  void detach();

  // Entries are appended as messages are sent, and every (re-)send gets a
  // fresh, globally increasing MsgId from the network — so entries_ is
  // always sorted by env.id and record_ack() can binary-search instead of
  // scanning.
  //
  // The vector lives in a refcounted box so capture() can freeze it by
  // sharing; every mutator calls detach() first, which clones only while a
  // capture is alive.  Null means "never logged anything" — most nodes of a
  // large federation never send inter-cluster, and their logs (and every
  // capture of them) must not cost an allocation.
  RcBox<std::vector<LogEntry>> entries_;
  std::size_t unacked_{0};
  LogTally* tally_{nullptr};
};

}  // namespace hc3i::proto
