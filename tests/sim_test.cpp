// Unit tests for the discrete-event kernel: event queue, executive, timers.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/simulation.hpp"
#include "sim/timer.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace hc3i::sim {
namespace {

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(seconds(3), [&] { order.push_back(3); });
  q.schedule(seconds(1), [&] { order.push_back(1); });
  q.schedule(seconds(2), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    q.schedule(seconds(1), [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventQueue, CancelSkipsEvent) {
  EventQueue q;
  int fired = 0;
  const EventId id = q.schedule(seconds(1), [&] { ++fired; });
  q.schedule(seconds(2), [&] { ++fired; });
  q.cancel(id);
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelTwiceIsHarmless) {
  EventQueue q;
  const EventId id = q.schedule(seconds(1), [] {});
  q.cancel(id);
  q.cancel(id);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PeekSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(seconds(1), [] {});
  q.schedule(seconds(5), [] {});
  q.cancel(early);
  EXPECT_EQ(q.peek_time(), seconds(5));
}

TEST(EventQueue, RecyclesCancelledSlots) {
  // A long-lived queue must not grow its side table with every event ever
  // scheduled — slots of fired/cancelled events are reused.
  EventQueue q;
  int fired = 0;
  for (int round = 0; round < 10'000; ++round) {
    const EventId a = q.schedule(SimTime{round + 1}, [&] { ++fired; });
    q.schedule(SimTime{round + 1}, [&] { ++fired; });
    q.cancel(a);
    q.pop().second();
  }
  EXPECT_EQ(fired, 10'000);
  EXPECT_TRUE(q.empty());
  // Peak simultaneity here is 2, so the slab stays tiny (vs 20k scheduled).
  EXPECT_LE(q.slot_count(), 4u);
  EXPECT_EQ(q.scheduled_count(), 20'000u);
}

TEST(EventQueue, StaleCancelOfRecycledSlotIsSafe) {
  EventQueue q;
  int first_fired = 0;
  int second_fired = 0;
  const EventId stale = q.schedule(seconds(1), [&] { ++first_fired; });
  q.cancel(stale);
  EXPECT_TRUE(q.empty());
  // The next schedule reuses the slot; the stale id must not touch it.
  const EventId fresh = q.schedule(seconds(2), [&] { ++second_fired; });
  EXPECT_FALSE(stale == fresh);
  q.cancel(stale);  // stale generation: harmless no-op
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(first_fired, 0);
  EXPECT_EQ(second_fired, 1);
}

TEST(EventQueue, CancelAfterFiringIsSafeAcrossReuse) {
  // The timer race: an event fires, its slot is recycled by a new event,
  // and only then does the stale cancel arrive.
  EventQueue q;
  int fired = 0;
  const EventId old_id = q.schedule(seconds(1), [&] { ++fired; });
  q.pop().second();  // fires; slot released
  EXPECT_EQ(fired, 1);
  q.schedule(seconds(2), [&] { ++fired; });  // reuses the slot
  q.cancel(old_id);                          // must not cancel the new event
  EXPECT_EQ(q.size(), 1u);
  q.pop().second();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, DefaultEventIdCancelsNothing) {
  EventQueue q;
  q.schedule(seconds(1), [] {});
  q.cancel(EventId{});
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, OrderPreservedUnderCancelChurn) {
  // Interleave schedules and cancels and verify the surviving events still
  // pop in (time, scheduling order) — the bit-reproducibility contract.
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(
        q.schedule(SimTime{(i * 37) % 10 + 1}, [&order, i] { order.push_back(i); }));
  }
  for (int i = 0; i < 100; i += 3) q.cancel(ids[i]);
  std::vector<int> expected;
  for (int i = 0; i < 100; ++i) {
    if (i % 3 != 0) expected.push_back(i);
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [](int a, int b) { return (a * 37) % 10 < (b * 37) % 10; });
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(order, expected);
}

TEST(EventQueue, SameInstantFanOutSharesOneHeapEntry) {
  // A 2PC fan-out: N-1 equal requests over identical links arrive at one
  // instant.  They must cost one heap entry, not one per message.
  EventQueue q;
  std::vector<int> order;
  q.schedule(seconds(9), [&order] { order.push_back(-1); });
  for (int i = 0; i < 99; ++i) {
    q.schedule(seconds(5), [&order, i] { order.push_back(i); });
  }
  EXPECT_EQ(q.size(), 100u);
  EXPECT_EQ(q.instant_count(), 2u);
  // A zero-delay schedule made while the group drains joins its tail.
  q.pop().second();
  q.schedule(seconds(5), [&order] { order.push_back(99); });
  EXPECT_EQ(q.instant_count(), 2u);
  // An intervening schedule at another time closes the group: a later
  // same-time event starts a new one, which pops after it.
  q.schedule(seconds(6), [&order] { order.push_back(-2); });
  q.schedule(seconds(5), [&order] { order.push_back(100); });
  EXPECT_EQ(q.instant_count(), 4u);
  while (!q.empty()) q.pop().second();
  ASSERT_EQ(order.size(), 103u);
  for (int i = 0; i <= 100; ++i) EXPECT_EQ(order[i], i);
  EXPECT_EQ(order[101], -2);
  EXPECT_EQ(order[102], -1);
  EXPECT_EQ(q.instant_count(), 0u);
}

TEST(EventQueue, CancellingAGroupRetiresItsHeapEntry) {
  EventQueue q;
  std::vector<EventId> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(q.schedule(seconds(1), [] {}));
  q.schedule(seconds(2), [] {});
  EXPECT_EQ(q.instant_count(), 2u);
  q.cancel(ids[1]);  // middle
  q.cancel(ids[0]);  // head
  EXPECT_EQ(q.peek_time(), seconds(1));
  q.cancel(ids[2]);  // tail: the group is empty now
  EXPECT_EQ(q.instant_count(), 1u);
  EXPECT_EQ(q.peek_time(), seconds(2));
  // The emptied group is no longer a join target.
  q.schedule(seconds(1), [] {});
  EXPECT_EQ(q.instant_count(), 2u);
  EXPECT_EQ(q.peek_time(), seconds(1));
}

// Differential test: the grouped queue against a reference ordered set of
// (time, sequence) over random operation sequences.  Times come from a
// handful of values so ties, and therefore shared instant groups, dominate.
// After every operation the size, the earliest time and every pop must
// match the model.
TEST(EventQueue, MatchesReferenceModel) {
  using Key = std::pair<SimTime, std::uint64_t>;  // (time, sequence)
  for (std::uint64_t seed = 1; seed <= 48; ++seed) {
    SCOPED_TRACE(seed);
    EventQueue q;
    RngStream rng(seed, 3);
    std::set<Key> model;
    std::map<std::uint64_t, EventId> live;  // sequence -> id
    std::vector<EventId> dead;              // fired or cancelled ids
    std::vector<std::uint64_t> fired;
    std::uint64_t next = 0;
    SimTime now = SimTime::zero();

    const auto schedule = [&](SimTime t) {
      const std::uint64_t seq = next++;
      live[seq] = q.schedule(t, [&fired, seq] { fired.push_back(seq); });
      model.insert({t, seq});
    };
    const auto cancel = [&](const Key& k) {
      q.cancel(live.at(k.second));
      dead.push_back(live.at(k.second));
      live.erase(k.second);
      model.erase(k);
    };
    const auto pop = [&] {
      const Key expect = *model.begin();
      auto [t, cb] = q.pop();
      cb();
      EXPECT_EQ(t, expect.first);
      EXPECT_EQ(fired.back(), expect.second);
      model.erase(model.begin());
      dead.push_back(live.at(expect.second));
      live.erase(expect.second);
      now = t;
    };
    // The pending events sharing the time of a random pending event, in
    // sequence order.
    const auto random_instant = [&] {
      auto it = model.begin();
      std::advance(it, static_cast<long>(rng.next_below(model.size())));
      std::vector<Key> same;
      for (auto j = model.lower_bound({it->first, 0});
           j != model.end() && j->first == it->first; ++j) {
        same.push_back(*j);
      }
      return same;
    };

    for (int op = 0; op < 600; ++op) {
      const std::uint64_t kind = rng.next_below(100);
      if (kind < 35 || model.empty()) {
        const auto at = now + SimTime{static_cast<std::int64_t>(
                                  rng.next_below(4))};
        const auto n = 1 + rng.next_below(4);
        for (std::uint64_t i = 0; i < n; ++i) schedule(at);
      } else if (kind < 55) {
        pop();
        // Zero-delay schedules made while the instant drains.
        if (rng.next_below(2) == 0) {
          const auto n = 1 + rng.next_below(3);
          for (std::uint64_t i = 0; i < n; ++i) schedule(now);
        }
      } else if (kind < 75) {
        const std::vector<Key> same = random_instant();
        switch (rng.next_below(3)) {
          case 0: cancel(same.front()); break;
          case 1: cancel(same[same.size() / 2]); break;
          default: cancel(same.back()); break;
        }
      } else if (kind < 85) {
        for (const Key& k : random_instant()) cancel(k);
      } else if (!dead.empty()) {
        // Stale ids: their slots have mostly been recycled by now.
        q.cancel(dead[rng.next_below(dead.size())]);
      }
      ASSERT_EQ(q.size(), model.size()) << "op " << op;
      if (!model.empty()) {
        ASSERT_EQ(q.peek_time(), model.begin()->first) << "op " << op;
      }
      ASSERT_LE(q.instant_count(), q.size());
      if (HasFailure()) return;
    }
    while (!model.empty()) pop();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.instant_count(), 0u);
  }
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), CheckFailure);
  EXPECT_THROW(q.peek_time(), CheckFailure);
}

TEST(Simulation, ClockAdvancesToEventTimes) {
  Simulation sim;
  std::vector<SimTime> at;
  sim.schedule_at(seconds(5), [&] { at.push_back(sim.now()); });
  sim.schedule_at(seconds(2), [&] { at.push_back(sim.now()); });
  sim.run_all();
  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(at[0], seconds(2));
  EXPECT_EQ(at[1], seconds(5));
}

TEST(Simulation, SchedulingInPastThrows) {
  Simulation sim;
  sim.schedule_at(seconds(10), [] {});
  sim.run_all();
  EXPECT_EQ(sim.now(), seconds(10));
  EXPECT_THROW(sim.schedule_at(seconds(5), [] {}), CheckFailure);
}

TEST(Simulation, RunUntilHonoursHorizon) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(seconds(1), [&] { ++fired; });
  sim.schedule_at(seconds(10), [&] { ++fired; });
  const std::uint64_t ran = sim.run_until(seconds(5));
  EXPECT_EQ(ran, 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now(), seconds(5));  // clock advanced to the horizon
  sim.run_until(seconds(20));
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, EventsExactlyAtHorizonRun) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(seconds(5), [&] { ++fired; });
  sim.run_until(seconds(5));
  EXPECT_EQ(fired, 1);
}

TEST(Simulation, EventsCanScheduleEvents) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(seconds(1), [&] {
    order.push_back(1);
    sim.schedule_after(seconds(1), [&] { order.push_back(2); });
  });
  sim.run_all();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(sim.now(), seconds(2));
}

TEST(Simulation, StepRunsExactlyOne) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(seconds(1), [&] { ++fired; });
  sim.schedule_at(seconds(2), [&] { ++fired; });
  EXPECT_TRUE(sim.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, RequestStopBreaksLoop) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(seconds(1), [&] {
    ++fired;
    sim.request_stop();
  });
  sim.schedule_at(seconds(2), [&] { ++fired; });
  sim.run_all();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.pending_events(), 1u);
}

TEST(Simulation, RequestStopInsideRunUntilKeepsClock) {
  // A stop that leaves events before the horizon pending must not move the
  // clock to the horizon: those events would later fire "in the past".
  Simulation sim;
  std::vector<SimTime> at;
  sim.schedule_at(seconds(1), [&] {
    at.push_back(sim.now());
    sim.request_stop();
  });
  sim.schedule_at(seconds(2), [&] { at.push_back(sim.now()); });
  sim.run_until(seconds(10));
  EXPECT_EQ(sim.now(), seconds(1));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run_until(seconds(10));
  ASSERT_EQ(at.size(), 2u);
  EXPECT_EQ(at[1], seconds(2));
  EXPECT_EQ(sim.now(), seconds(10));
}

TEST(Simulation, RngStreamsReproducible) {
  Simulation a(99), b(99);
  auto ra = a.rng_stream(5);
  auto rb = b.rng_stream(5);
  EXPECT_EQ(ra.next_u64(), rb.next_u64());
}

TEST(Simulation, InfiniteDelayNeverFires) {
  Simulation sim;
  int fired = 0;
  sim.schedule_after(SimTime::infinity(), [&] { ++fired; });
  sim.run_until(hours(1000));
  EXPECT_EQ(fired, 0);
}

TEST(Timer, OneShotFiresOnce) {
  Simulation sim;
  int fired = 0;
  Timer t(sim, seconds(5), /*periodic=*/false, [&] { ++fired; });
  t.arm();
  sim.run_until(seconds(30));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(t.fire_count(), 1u);
}

TEST(Timer, PeriodicKeepsFiring) {
  Simulation sim;
  int fired = 0;
  Timer t(sim, seconds(10), /*periodic=*/true, [&] { ++fired; });
  t.arm();
  sim.run_until(seconds(35));
  EXPECT_EQ(fired, 3);  // at 10, 20, 30
}

TEST(Timer, ResetDelaysExpiry) {
  // Matches the paper's behaviour: "the timer is reset when a forced CLC
  // is established", so back-to-back resets postpone the unforced CLC.
  Simulation sim;
  int fired = 0;
  Timer t(sim, seconds(10), /*periodic=*/true, [&] { ++fired; });
  t.arm();
  sim.schedule_at(seconds(9), [&] { t.reset(); });
  sim.run_until(seconds(18));
  EXPECT_EQ(fired, 0);  // original expiry at 10 was pushed to 19
  sim.run_until(seconds(19));
  EXPECT_EQ(fired, 1);
}

TEST(Timer, CancelStopsIt) {
  Simulation sim;
  int fired = 0;
  Timer t(sim, seconds(10), /*periodic=*/true, [&] { ++fired; });
  t.arm();
  sim.schedule_at(seconds(15), [&] { t.cancel(); });
  sim.run_until(seconds(100));
  EXPECT_EQ(fired, 1);  // only the expiry at 10
}

TEST(Timer, InfinitePeriodNeverFires) {
  // Paper §5.2 runs cluster 1 with "delay between CLCs set to infinite".
  Simulation sim;
  int fired = 0;
  Timer t(sim, SimTime::infinity(), /*periodic=*/true, [&] { ++fired; });
  t.arm();
  EXPECT_FALSE(t.armed());
  sim.run_until(hours(100));
  EXPECT_EQ(fired, 0);
}

TEST(Timer, CallbackMayResetItself) {
  Simulation sim;
  int fired = 0;
  Timer t(sim, seconds(10), /*periodic=*/true, [&] {
    ++fired;
    t.reset();
  });
  t.arm();
  sim.run_until(seconds(45));
  EXPECT_EQ(fired, 4);
}

}  // namespace
}  // namespace hc3i::sim
