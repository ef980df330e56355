#include "sim/event_queue.hpp"

namespace hc3i::sim {

void EventQueue::sift_up(std::size_t i) {
  const Entry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) >> 2;
    if (!earlier(e, heap_[parent])) break;
    put(i, heap_[parent]);
    i = parent;
  }
  put(i, e);
}

void EventQueue::sift_down(std::size_t i) {
  const Entry e = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first = (i << 2) + 1;
    if (first >= n) break;
    std::size_t best = first;
    const std::size_t last = first + 4 < n ? first + 4 : n;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    put(i, heap_[best]);
    i = best;
  }
  put(i, e);
}

void EventQueue::remove_at(std::size_t i) {
  const Entry moved = heap_.back();
  heap_.pop_back();
  if (i == heap_.size()) return;  // removed the tail entry itself
  put(i, moved);
  if (i > 0 && earlier(moved, heap_[(i - 1) >> 2])) {
    sift_up(i);
  } else {
    sift_down(i);
  }
}

void EventQueue::open_group(SimTime t) {
  std::uint32_t g;
  if (!free_groups_.empty()) {
    g = free_groups_.back();
    free_groups_.pop_back();
  } else {
    g = static_cast<std::uint32_t>(groups_.size());
    groups_.emplace_back();
  }
  heap_.push_back(Entry{t, next_seq_, g});
  groups_[g].pos = static_cast<std::uint32_t>(heap_.size() - 1);
  sift_up(heap_.size() - 1);
  last_group_ = g;
  last_t_ = t;
}

void EventQueue::release(std::uint32_t slot) {
  Slot& s = slots_[slot];
  Group& g = groups_[s.group];
  if (s.prev != kNil) {
    slots_[s.prev].next = s.next;
  } else {
    g.head = s.next;
  }
  if (s.next != kNil) {
    slots_[s.next].prev = s.prev;
  } else {
    g.tail = s.prev;
  }
  if (g.head == kNil) {  // the group emptied: retire its heap entry
    remove_at(g.pos);
    if (s.group == last_group_) last_group_ = kNil;
    free_groups_.push_back(s.group);
  }
  ++s.gen;
  free_.push_back(slot);
}

EventId EventQueue::schedule(SimTime t, Callback cb) {
  HC3I_CHECK(static_cast<bool>(cb), "schedule: empty callback");
  std::uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
  } else {
    slot = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  if (last_group_ == kNil || last_t_ != t) open_group(t);
  Group& g = groups_[last_group_];
  Slot& s = slots_[slot];
  s.cb = std::move(cb);
  s.group = last_group_;
  s.prev = g.tail;
  s.next = kNil;
  if (g.tail != kNil) {
    slots_[g.tail].next = slot;
  } else {
    g.head = slot;
  }
  g.tail = slot;
  ++next_seq_;
  ++live_;
  return EventId{(static_cast<std::uint64_t>(s.gen) << 32) | slot};
}

void EventQueue::cancel(EventId id) {
  const auto slot = static_cast<std::uint32_t>(id.v & 0xffffffffu);
  const auto gen = static_cast<std::uint32_t>(id.v >> 32);
  if (slot >= slots_.size()) return;
  Slot& s = slots_[slot];
  if (s.gen != gen || !s.cb) return;  // stale id, already fired, or cancelled
  s.cb = nullptr;
  release(slot);
  --live_;
}

std::pair<SimTime, EventQueue::Callback> EventQueue::pop() {
  HC3I_CHECK(!empty(), "pop on empty queue");
  const std::uint32_t slot = groups_[heap_[0].group].head;
  // Moving the callable out leaves the slot's cb empty.
  std::pair<SimTime, Callback> out{heap_[0].t, std::move(slots_[slot].cb)};
  release(slot);
  --live_;
  return out;
}

}  // namespace hc3i::sim
