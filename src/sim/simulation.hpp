#pragma once

// The simulation executive: clock + event loop.
//
// This replaces the C++SIM library the paper used (§5.1).  C++SIM models
// entities as threads under a scheduler; we use the equivalent (and
// deterministic) event-driven formulation: entities schedule callbacks, the
// executive advances the clock to the next event and runs it.  The paper's
// four threads map as: "Nodes" -> node event handlers, "Network" -> the
// net::Network delivery events, "Timers" -> sim::Timer, "Controller" -> the
// driver::SimulationBuilder / ExperimentRunner.

#include <cstdint>
#include <functional>

#include "sim/event_queue.hpp"
#include "util/rng.hpp"
#include "util/time.hpp"

namespace hc3i::sim {

/// Simulation executive. One instance per simulation run.
class Simulation {
 public:
  /// `master_seed` seeds every RNG stream derived via rng_stream().
  explicit Simulation(std::uint64_t master_seed = 1);

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedule a callback at an absolute simulated time (>= now).
  EventId schedule_at(SimTime t, EventQueue::Callback cb);

  /// Schedule a callback after a delay (>= 0) from now.
  EventId schedule_after(SimTime delay, EventQueue::Callback cb);

  /// Cancel a scheduled event (no-op if already fired/cancelled).
  void cancel(EventId id) { queue_.cancel(id); }

  /// Run until the event queue empties, the clock passes `horizon`, or an
  /// event calls request_stop().  Events scheduled exactly at the horizon
  /// still run.  The clock ends at the horizon unless a stop left events at
  /// or before it pending; then it stays at the last event run.  Returns the
  /// number of events executed.
  std::uint64_t run_until(SimTime horizon);

  /// Run to completion (empty queue) — callers must guarantee termination.
  std::uint64_t run_all() { return run_until(SimTime::infinity()); }

  /// Execute exactly one event, if any. Returns false when the queue is empty.
  bool step();

  /// Ask the executive to stop after the current event returns.
  void request_stop() { stop_requested_ = true; }

  /// Derive a named RNG stream. Streams with distinct ids are independent;
  /// calling again with the same id restarts the stream from its origin,
  /// so each consumer should derive its stream once and keep it.
  RngStream rng_stream(std::uint64_t stream_id) const;

  /// Master seed (for run manifests).
  std::uint64_t seed() const { return master_seed_; }

  /// Total events executed so far.
  std::uint64_t events_executed() const { return executed_; }

  /// Live events currently pending.
  std::size_t pending_events() const { return queue_.size(); }

 private:
  EventQueue queue_;
  SimTime now_{SimTime::zero()};
  std::uint64_t master_seed_;
  std::uint64_t executed_{0};
  bool stop_requested_{false};
};

}  // namespace hc3i::sim
