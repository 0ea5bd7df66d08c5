#include "fgcs/sim/simulation.hpp"

#include <algorithm>
#include <memory>
#include <utility>

#include "fgcs/obs/observer.hpp"
#include "fgcs/util/error.hpp"

namespace fgcs::sim {

EventHandle Simulation::at(SimTime when, EventQueue::Callback cb) {
  FGCS_ASSERT(when >= now_);
  return queue_.schedule(when, std::move(cb));
}

EventHandle Simulation::after(SimDuration delay, EventQueue::Callback cb) {
  FGCS_ASSERT(delay >= SimDuration::zero());
  return queue_.schedule(now_ + delay, std::move(cb));
}

// Periodic tasks share one cancellation flag across all firings: `every`
// returns a handle over that flag, and each firing re-schedules a fresh
// closure holding the shared state. No closure references itself, so the
// chain is freed as soon as the series is cancelled or the queue drains.
// The rescheduling closure captures only (this, shared state) — well
// inside the inline-callback buffer, so firings never allocate.
struct Simulation::PeriodicState {
  EventQueue::Callback task;
  SimDuration period;
  std::shared_ptr<bool> cancelled;
};

void Simulation::fire_periodic(const std::shared_ptr<PeriodicState>& state) {
  if (*state->cancelled) return;
  state->task();
  if (*state->cancelled) return;  // the task may cancel the series
  queue_.schedule(now_ + state->period,
                  [this, state] { fire_periodic(state); });
}

EventHandle Simulation::every(SimDuration period, EventQueue::Callback task) {
  FGCS_ASSERT(period > SimDuration::zero());
  auto state = std::make_shared<PeriodicState>();
  state->task = std::move(task);
  state->period = period;
  state->cancelled = std::make_shared<bool>(false);
  queue_.schedule(now_ + period, [this, state] { fire_periodic(state); });
  return EventHandle(state->cancelled);
}

// Telemetry is reported once per run, not per event: the queue's plain
// stats (including the live high-water mark) carry everything the flush
// needs, so the event loop itself does no telemetry work.
void Simulation::run_until(SimTime until) {
  stop_requested_ = false;
  const SimTime begin = now_;
  const std::uint64_t events_before = events_executed_;
  while (!queue_.empty() && !stop_requested_) {
    const SimTime next = queue_.next_time();
    if (next > until) break;
    now_ = next;
    queue_.run_next();
    ++events_executed_;
  }
  if (now_ < until) now_ = until;
  flush_obs(false, begin, events_executed_ - events_before);
}

void Simulation::run_all() {
  stop_requested_ = false;
  const SimTime begin = now_;
  const std::uint64_t events_before = events_executed_;
  while (!queue_.empty() && !stop_requested_) {
    // run_next advances the clock before firing — no separate peek needed.
    queue_.run_next(&now_);
    ++events_executed_;
  }
  flush_obs(true, begin, events_executed_ - events_before);
}

void Simulation::flush_obs(bool run_all, SimTime begin, std::uint64_t events) {
  const SimEventStats stats = queue_.drain_stats();
  obs::sim_batch({.run_all = run_all,
                  .begin = begin,
                  .end = now_,
                  .executed = events,
                  .max_depth = static_cast<double>(stats.max_live),
                  .scheduled = stats.scheduled,
                  .spilled = stats.spilled,
                  .cancelled = stats.cancelled,
                  .compactions = stats.compactions,
                  .compacted = stats.compacted});
}

}  // namespace fgcs::sim
