#include "sim/simulation.hpp"

namespace hc3i::sim {

Simulation::Simulation(std::uint64_t master_seed) : master_seed_(master_seed) {}

EventId Simulation::schedule_at(SimTime t, EventQueue::Callback cb) {
  HC3I_CHECK(t >= now_, "schedule_at: cannot schedule in the past (t=" +
                            to_string(t) + " now=" + to_string(now_) + ")");
  return queue_.schedule(t, std::move(cb));
}

EventId Simulation::schedule_after(SimTime delay, EventQueue::Callback cb) {
  HC3I_CHECK(delay.ns >= 0, "schedule_after: negative delay");
  if (delay.is_infinite()) {
    return queue_.schedule(SimTime::infinity(), std::move(cb));
  }
  return queue_.schedule(now_ + delay, std::move(cb));
}

std::uint64_t Simulation::run_until(SimTime horizon) {
  std::uint64_t ran = 0;
  stop_requested_ = false;
  while (!queue_.empty() && !stop_requested_) {
    if (queue_.peek_time() > horizon) break;
    auto [t, cb] = queue_.pop();
    now_ = t;
    cb();
    ++ran;
    ++executed_;
  }
  // Advance the clock to the horizon even if no event lands exactly there,
  // so back-to-back run_until calls observe monotone time — but only when
  // nothing at or before the horizon is left: after request_stop() the
  // pending events keep their times, and jumping past them would move the
  // clock backwards when they fire.
  const bool drained = queue_.empty() || queue_.peek_time() > horizon;
  if (drained && !horizon.is_infinite() && now_ < horizon) now_ = horizon;
  return ran;
}

bool Simulation::step() {
  if (queue_.empty()) return false;
  auto [t, cb] = queue_.pop();
  now_ = t;
  cb();
  ++executed_;
  return true;
}

RngStream Simulation::rng_stream(std::uint64_t stream_id) const {
  return RngStream(master_seed_, stream_id);
}

}  // namespace hc3i::sim
