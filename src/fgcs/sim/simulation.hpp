// Simulation driver: owns the clock and the event queue.
//
// A Simulation advances time only through event execution — there is no
// wall-clock coupling. Components schedule callbacks at absolute times or
// after relative delays, and may install periodic tasks (used by the
// resource monitor's sampler).
#pragma once

#include <memory>

#include "fgcs/sim/event_queue.hpp"
#include "fgcs/sim/time.hpp"

namespace fgcs::sim {

class Simulation {
 public:
  Simulation() = default;

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  SimTime now() const { return now_; }

  /// Schedules `cb` at the absolute instant `when` (must be >= now()).
  EventHandle at(SimTime when, EventQueue::Callback cb);

  /// Schedules `cb` after `delay` (must be >= 0).
  EventHandle after(SimDuration delay, EventQueue::Callback cb);

  /// Installs a periodic task firing every `period`, first at now()+period.
  /// The task keeps rescheduling itself until its handle is cancelled or
  /// the simulation stops. Returns a handle controlling the whole series.
  /// One allocation per series; the per-firing reschedule is allocation-free.
  EventHandle every(SimDuration period, EventQueue::Callback task);

  /// Runs events until the queue is empty or `until` is passed. The clock
  /// finishes at min(until, last event time). Events exactly at `until`
  /// are executed.
  void run_until(SimTime until);

  /// Runs events until the queue drains completely.
  void run_all();

  /// Requests that run_until/run_all return after the current event.
  void stop() { stop_requested_ = true; }

  /// Number of events executed so far (for tests/benchmarks).
  std::uint64_t events_executed() const { return events_executed_; }

 private:
  struct PeriodicState;
  void fire_periodic(const std::shared_ptr<PeriodicState>& state);
  /// Drains the queue's scheduling stats and reports them as one
  /// telemetry batch (plus the run's trace span) — the only telemetry
  /// touch per run.
  void flush_obs(bool run_all, SimTime begin, std::uint64_t events);

  EventQueue queue_;
  SimTime now_ = SimTime::epoch();
  bool stop_requested_ = false;
  std::uint64_t events_executed_ = 0;
};

}  // namespace fgcs::sim
