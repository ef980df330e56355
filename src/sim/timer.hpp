#pragma once

// Restartable timers on top of the simulation executive.
//
// The paper's protocol relies on timers whose phase is *reset* by protocol
// events: "the timer is reset when a forced CLC is established" (§5.2).
// Timer encapsulates that pattern: arm(), reset(), cancel(); a periodic
// timer re-arms itself after each expiry unless cancelled.

#include <functional>
#include <optional>

#include "sim/simulation.hpp"

namespace hc3i::sim {

/// A one-shot or periodic timer.  Not copyable (identity matters).
class Timer {
 public:
  using Callback = std::function<void()>;

  /// `period` may be SimTime::infinity() => the timer never fires (the
  /// paper runs cluster 1 with "delay between CLCs set to infinite").
  Timer(Simulation& sim, SimTime period, bool periodic, Callback cb);
  ~Timer() { cancel(); }

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Arm the timer `period` from now (idempotent: re-arms from scratch).
  void arm();

  /// Reset the phase: cancel any pending expiry and re-arm `period` from
  /// now.  Equivalent to arm(); named to match the protocol prose.
  void reset() { arm(); }

  /// Stop the timer; it will not fire until re-armed.
  void cancel();

  SimTime period() const { return period_; }

  /// True if an expiry is currently scheduled.
  bool armed() const { return pending_.has_value(); }

  /// Number of times the timer has fired.
  std::uint64_t fire_count() const { return fires_; }

 private:
  void on_fire();

  Simulation& sim_;
  SimTime period_;
  bool periodic_;
  Callback cb_;
  std::optional<EventId> pending_;
  std::uint64_t fires_{0};
};

}  // namespace hc3i::sim
