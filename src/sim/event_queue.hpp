#pragma once

// Pending-event set for the discrete-event simulator.
//
// Events pop in (time, sequence) order.  The sequence number makes the
// ordering of simultaneous events deterministic (FIFO in scheduling order),
// which in turn makes whole simulations bit-reproducible — the property the
// regression tests and the paper-reproduction benches depend on.
//
// The heap does not hold events; it holds *instant groups*.  A group is a
// FIFO of event slots that share one time, and its heap key is (time,
// sequence number of its first event).  A new event joins the group of the
// most recently scheduled event when its time is equal and that group is
// still pending; otherwise it starts a new group.  Consecutive schedules
// are the only ones that share a group, so every group holds a contiguous
// run of sequence numbers, same-time groups never interleave, and popping
// groups in key order and each group in FIFO order yields exactly the
// (time, sequence) order.  The shape this targets is the protocol fan-out:
// a 2PC coordinator sends N-1 equal requests over identical links, all of
// which arrive at one instant, and the acks do the same — one heap entry
// and one sift for the whole fan-out instead of one per message.  An event
// that joins a group costs O(1); a new group costs O(log pending groups).
//
// Callbacks live in a slab of recycled slots rather than a table that grows
// with every event ever scheduled: a 10-simulated-hour run schedules tens of
// millions of events but only keeps thousands pending, and the slab's memory
// tracks the pending set, not the total.  Groups recycle through a second
// slab the same way, so a steady-state run allocates nothing.  Each slot
// carries a generation stamp and EventId encodes (slot, generation), so an
// id that outlives its event — a timer cancelling after its own firing, or
// after the slot was recycled for a newer event — cancels nothing but is
// always safe.
//
// cancel() unlinks the slot from its group in O(1) and removes the group's
// heap entry as soon as the group is empty.  Timers cancel and re-schedule
// constantly (CLC periods are reset whenever a forced CLC commits, paper
// §5.2); the heap only ever holds groups with a live event, so peek_time()
// is always the time of a live event and no tombstones pile up.

#include <cstdint>
#include <vector>

#include "sim/inline_fn.hpp"
#include "util/check.hpp"
#include "util/time.hpp"

namespace hc3i::sim {

/// Identifies a scheduled event; used to cancel it.  Packs the slab slot in
/// the low 32 bits and the slot's generation in the high 32; generations
/// start at 1, so a default-constructed id matches nothing.
struct EventId {
  std::uint64_t v{0};
  constexpr bool operator==(const EventId&) const = default;
};

/// The pending-event set.
class EventQueue {
 public:
  /// Inline capacity for event callables.  Sized for the largest capture the
  /// simulator schedules (a `this` pointer plus a shared_ptr plus a couple
  /// of scalars); callables that would not fit fail to compile rather than
  /// silently falling back to the heap (see inline_fn.hpp).
  static constexpr std::size_t kCallbackCapacity = 48;

  using Callback = InlineFn<kCallbackCapacity>;

  /// Schedule `cb` at absolute time `t`. Events at equal times fire in
  /// scheduling order. Returns an id usable with cancel().
  EventId schedule(SimTime t, Callback cb);

  /// Cancel a scheduled event. Cancelling an already-fired, already-
  /// cancelled, or otherwise stale id is a harmless no-op (timers race with
  /// their own firing; the generation stamp keeps recycled slots safe).
  void cancel(EventId id);

  /// True when no live (non-cancelled) events remain.
  bool empty() const { return live_ == 0; }

  /// Number of live events.
  std::size_t size() const { return live_; }

  /// Time of the earliest live event; REQUIRES !empty().
  SimTime peek_time() const {
    HC3I_CHECK(!empty(), "peek_time on empty queue");
    return heap_[0].t;
  }

  /// Remove and return the earliest live event's callback and time.
  /// REQUIRES !empty().
  std::pair<SimTime, Callback> pop();

  /// Total events ever scheduled (statistics).
  std::uint64_t scheduled_count() const { return next_seq_; }

  /// Size of the callback slab — tracks peak simultaneous events, not total
  /// scheduled (bounded-memory regression checks use this).
  std::size_t slot_count() const { return slots_.size(); }

  /// Pending instant groups, i.e. heap entries (structural tests use this).
  std::size_t instant_count() const { return heap_.size(); }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  /// Heap entry for one pending instant group.
  struct Entry {
    SimTime t;
    std::uint64_t seq;  ///< sequence number of the group's first event
    std::uint32_t group;
  };

  struct Slot {
    Callback cb;                 ///< empty == cancelled or already fired
    std::uint32_t gen{1};        ///< bumped when the slot is recycled
    std::uint32_t group{kNil};   ///< owning group (while live)
    std::uint32_t prev{kNil};    ///< group FIFO links (while live)
    std::uint32_t next{kNil};
  };

  struct Group {
    std::uint32_t head{kNil};  ///< oldest live slot
    std::uint32_t tail{kNil};  ///< newest live slot
    std::uint32_t pos{0};      ///< heap index of this group's entry
  };

  /// Heap order: earliest time first, creation order among equals.
  static bool earlier(const Entry& a, const Entry& b) {
    if (a.t != b.t) return a.t < b.t;
    return a.seq < b.seq;
  }

  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  /// Remove the entry at heap index `i`, restoring the heap invariant.
  void remove_at(std::size_t i);
  /// Start a new pending group at `t` and make it the join target.
  void open_group(SimTime t);
  /// Unlink a live slot from its group (dropping the group's heap entry
  /// when it empties) and recycle the slot.
  void release(std::uint32_t slot);
  /// Place `e` at heap index `i` and keep its group's position current.
  void put(std::size_t i, const Entry& e) {
    heap_[i] = e;
    groups_[e.group].pos = static_cast<std::uint32_t>(i);
  }

  std::vector<Entry> heap_;               ///< pending groups only (4-ary heap)
  std::vector<Slot> slots_;
  std::vector<Group> groups_;
  std::vector<std::uint32_t> free_;       ///< recycled slot indices
  std::vector<std::uint32_t> free_groups_;  ///< recycled group indices
  std::uint32_t last_group_{kNil};  ///< group of the last schedule, if pending
  SimTime last_t_{};                ///< its time
  std::uint64_t next_seq_{0};
  std::size_t live_{0};
};

}  // namespace hc3i::sim
