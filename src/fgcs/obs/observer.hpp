// Telemetry hooks and the global Observer.
//
// Instrumented code reports through free functions in fgcs::obs:
//
//   obs::emit(obs::FlightEventKind::kStateTransition, at, from, to);
//   obs::detector_samples(t0, stride, n);   // the hot counters have
//   obs::scheduler_ticks(switched, runnable, skipped);  // their own calls
//
// A hook first folds its event into the calling thread's scopes: the
// CounterShard a ShardScope installed (a thread without one counts in the
// installed Observer's registry instead) and the TimeSeriesShard a
// TimeSeriesScope installed. Only then does it hand the event to the
// installed Observer, which keeps the process-wide surfaces: the metric
// registry, the flight ring, the event sink and the Chrome trace. So a
// sweep worker collects counters and bins with no Observer installed,
// and an Observer is only ever the caller's:
//
//   fgcs::obs::Observer observer;
//   fgcs::obs::ScopedObserver guard(&observer);   // or set_observer()
//   ... run a testbed / simulation ...
//   observer.metrics().write_csv(out);
//   observer.trace().write_chrome_json(out);
//
// With no scope and no observer (the default), a hook costs a few
// thread-local and atomic loads and performs zero allocations — cheap
// enough to leave compiled into the event loop and the scheduler tick.
//
// Tracks: events are attributed to the calling thread's *current track*
// (a plain integer; the testbed uses the machine id). TrackScope sets it
// RAII-style and is itself thread-local, so parallel per-machine
// simulation attributes events correctly.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string_view>

#include "fgcs/obs/flight_recorder.hpp"
#include "fgcs/obs/metrics.hpp"
#include "fgcs/obs/timeseries.hpp"
#include "fgcs/obs/trace_sink.hpp"
#include "fgcs/sim/time.hpp"

namespace fgcs::obs {

/// Number of availability-model states (S1..S5) — mirrors
/// monitor::AvailabilityState without depending on the monitor layer.
inline constexpr int kStateCount = 5;

/// Number of injectable fault kinds — mirrors fault::FaultKind without
/// depending on the fault layer (which links against obs).
inline constexpr int kFaultKindCount = 4;

/// Plain (non-atomic) per-thread counters.
///
/// A sweep worker installs one with ShardScope; every hook then bumps a
/// thread-local uint64_t instead of a shared atomic — no cross-core
/// cache-line ping-pong on `fault.injected`/`os.ticks_fast_forwarded`
/// while thousands of machines simulate in parallel. The shard is folded
/// into a registry once, at shard completion, via Observer::merge_shard().
/// Every field is 8 bytes wide; one table in observer.cpp names each
/// field's registry series.
struct CounterShard {
  std::uint64_t sim_events_executed = 0;
  std::uint64_t sim_events_scheduled = 0;
  std::uint64_t sim_events_cancelled = 0;
  std::uint64_t sim_events_compacted = 0;
  std::uint64_t sim_compactions = 0;
  std::uint64_t sim_callbacks_spilled = 0;
  double sim_max_queue_depth = 0.0;
  std::uint64_t fault_injected[kFaultKindCount] = {};
  std::uint64_t detector_samples = 0;
  std::uint64_t detector_sensor_gaps = 0;
  std::uint64_t detector_sensor_gap_us = 0;
  std::uint64_t detector_transitions[kStateCount][kStateCount] = {};
  std::uint64_t detector_episodes_opened = 0;
  std::uint64_t detector_episodes_closed = 0;
  std::uint64_t os_ticks = 0;
  std::uint64_t os_ticks_fast_forwarded = 0;
  std::uint64_t os_context_switches = 0;
  double os_max_runnable = 0.0;
  std::uint64_t testbed_machines = 0;
  std::uint64_t serve_ingest_events = 0;
  std::uint64_t serve_queries = 0;
  std::uint64_t serve_snapshot_swaps = 0;
};

namespace detail {
extern constinit thread_local CounterShard* t_shard;
}  // namespace detail

/// The calling thread's installed counter shard (nullptr when hooks count
/// in the installed Observer's registry).
inline CounterShard* current_shard() { return detail::t_shard; }

/// RAII thread-local shard install/restore. The caller owns the shard and
/// is responsible for merge_shard() after the scope ends.
class ShardScope {
 public:
  explicit ShardScope(CounterShard* shard);
  ~ShardScope();
  ShardScope(const ShardScope&) = delete;
  ShardScope& operator=(const ShardScope&) = delete;

 private:
  CounterShard* previous_;
};

/// Receives every episode open/close event the installed Observer sees,
/// synchronously on the emitting thread. This is the seam the online
/// serving layer (fgcs::serve) subscribes through: episode open/close
/// events carry everything AvailabilityFeed needs to maintain incremental
/// predictor state without rescanning the trace. Like the flight
/// recorder, a sink must be attached *before* the observer is installed —
/// the pointer is read unsynchronized from hook paths.
class EventSink {
 public:
  virtual ~EventSink() = default;
  virtual void on_flight_event(const FlightEvent& event) = 0;
};

class Observer {
 public:
  struct Options {
    /// Trace ring-buffer capacity; 0 retains every event.
    std::size_t trace_capacity = 0;
    /// Set false to run metrics-only (nothing is traced).
    bool enable_trace = true;
  };

  Observer() : Observer(Options{}) {}
  explicit Observer(const Options& options);

  Observer(const Observer&) = delete;
  Observer& operator=(const Observer&) = delete;

  MetricRegistry& metrics() { return metrics_; }
  const MetricRegistry& metrics() const { return metrics_; }
  TraceSink& trace() { return trace_; }
  const TraceSink& trace() const { return trace_; }
  bool trace_enabled() const { return trace_enabled_; }

  /// Attaches (or, with nullptr, detaches) a flight recorder; events of
  /// the ring's kinds are then mirrored into it. The caller owns the
  /// recorder and must attach it *before* installing the observer — the
  /// pointer is read unsynchronized from hook paths.
  void set_flight_recorder(FlightRecorder* recorder) { flight_ = recorder; }
  FlightRecorder* flight_recorder() const { return flight_; }

  /// Attaches (or, with nullptr, detaches) an event sink; episode
  /// open/close events are then forwarded to it synchronously. Same
  /// ownership and attach-before-install rules as the recorder.
  void set_event_sink(EventSink* sink) { sink_ = sink; }
  EventSink* event_sink() const { return sink_; }

  /// Folds one event into the process-wide surfaces: the registry
  /// counters of events CounterShard has no field for (guest and fleet
  /// events), the flight ring, the event sink and the Chrome trace.
  /// emit() calls it after the calling thread's scopes.
  void record(const FlightEvent& e);

  /// One fleet machine finished simulating (live progress counter; bumps
  /// the registry directly so monitors see it move mid-run).
  void on_fleet_machine_done() { fleet_machines_done_->inc(); }

  /// One fleet shard finished (all its machines simulated); recorded on
  /// the flight-recorder timeline at the horizon end.
  void on_fleet_shard_done(std::size_t shard, std::uint32_t first_machine,
                           std::size_t machine_count, sim::SimTime at);

  /// Feeds the "scope.seconds{scope=...}" histogram family (wall-clock).
  void record_scope(std::string_view name, double seconds);

  /// Folds a completed worker shard into the registry: counters are
  /// added, max-gauges raised. Called once per shard, off the hot path;
  /// safe to call concurrently from multiple finishing workers.
  void merge_shard(const CounterShard& shard);

  /// The registry series of the CounterShard field at byte `offset`.
  Counter& field_counter(std::size_t offset) { return *counters_[offset / 8]; }
  Gauge& field_gauge(std::size_t offset) { return *gauges_[offset / 8]; }

 private:
  static constexpr std::size_t kFields = sizeof(CounterShard) / 8;
  static constexpr int kKinds =
      static_cast<int>(FlightEventKind::kSnapshotSwap) + 1;

  MetricRegistry metrics_;
  TraceSink trace_;
  bool trace_enabled_;
  FlightRecorder* flight_ = nullptr;
  EventSink* sink_ = nullptr;

  // Series registered once at construction, so hooks never look up.
  Counter* counters_[kFields] = {};  // by CounterShard word; null for gauges
  Gauge* gauges_[kFields] = {};      // the max-gauge words only
  Counter* event_counters_[kKinds] = {};  // registry-only event kinds
  Counter* fleet_machines_done_;
};

namespace detail {
extern std::atomic<Observer*> g_observer;
}  // namespace detail

/// The installed observer, or nullptr when observability is disabled.
inline Observer* observer() {
  return detail::g_observer.load(std::memory_order_acquire);
}

/// Installs (or, with nullptr, disables) the global observer. The caller
/// keeps ownership and must keep it alive while installed.
void set_observer(Observer* observer);

/// RAII install/restore, for tools and tests.
class ScopedObserver {
 public:
  explicit ScopedObserver(Observer* obs) : previous_(observer()) {
    set_observer(obs);
  }
  ~ScopedObserver() { set_observer(previous_); }
  ScopedObserver(const ScopedObserver&) = delete;
  ScopedObserver& operator=(const ScopedObserver&) = delete;

 private:
  Observer* previous_;
};

/// The calling thread's trace track id (0 until set).
std::uint32_t current_track();

/// RAII thread-local track assignment.
class TrackScope {
 public:
  explicit TrackScope(std::uint32_t track);
  ~TrackScope();
  TrackScope(const TrackScope&) = delete;
  TrackScope& operator=(const TrackScope&) = delete;

 private:
  std::uint32_t previous_;
};

// -- Hooks ------------------------------------------------------------------

namespace detail {
void emit(const FlightEvent& e);
}  // namespace detail

/// Reports one event: folds it into the calling thread's TimeSeriesShard
/// and CounterShard (or the installed Observer's registry), then hands it
/// to the installed Observer's record(). Transitions between states
/// outside S1..S5, fault kinds outside fault::FaultKind, and empty work
/// losses or query batches are dropped. A thread with no scope and no
/// Observer installed pays three loads.
inline void emit(const FlightEvent& e) {
  if (current_ts_shard() || current_shard() || observer()) detail::emit(e);
}

/// emit() of an event on the calling thread's track.
inline void emit(FlightEventKind kind, sim::SimTime at, std::int32_t a = 0,
                 std::int32_t b = 0, sim::SimDuration dur = {}) {
  emit(FlightEvent{at, kind, current_track(), a, b, dur});
}

/// `count` detector samples at at, at+stride, ... — the hottest hook in a
/// telemetry-enabled sweep (the columnar walk reports whole runs of
/// constant-input samples at once). With a time-series scope installed
/// it is one thread-local load and one bin bump: the bins are then
/// authoritative for the sample count, and the scope's owner folds
/// TimeSeriesShard::total_samples() back into its CounterShard when the
/// shard retires, as the fleet sweep does at the end of each shard.
inline void detector_samples(sim::SimTime at, sim::SimDuration stride,
                             std::uint64_t count) {
  if (TimeSeriesShard* ts = current_ts_shard()) {
    ts->on_samples(at, stride, count);
  } else if (CounterShard* s = current_shard()) {
    s->detector_samples += count;
  } else if (Observer* o = observer()) {
    o->field_counter(offsetof(CounterShard, detector_samples)).inc(count);
  }
}

/// One scheduling decision of os::Machine: a tick in which a different
/// process (or idle) got the CPU when `switched`, with `runnable`
/// processes ready, plus `skipped` further ticks the fast-forward jumped
/// over that a forced per-tick run would have executed individually.
void scheduler_ticks(bool switched, std::size_t runnable,
                     std::uint64_t skipped);

/// One Simulation run's event-loop totals, flushed once per
/// run_until/run_all from the queue's plain counters — the event loop
/// does no per-event telemetry work at all.
struct SimBatch {
  bool run_all = false;  // traced as "run_all", else "run_until"
  sim::SimTime begin{};
  sim::SimTime end{};
  std::uint64_t executed = 0;
  /// The queue's peak pending-event count over the run (the executing
  /// event is not counted); 0 leaves the gauge untouched.
  double max_depth = 0.0;
  std::uint64_t scheduled = 0;
  std::uint64_t spilled = 0;  // callbacks too large for the inline buffer
  std::uint64_t cancelled = 0;
  std::uint64_t compactions = 0;
  std::uint64_t compacted = 0;  // cancelled entries the compactions removed
};

/// Counts a run's batch and, when it executed events, traces its span.
void sim_batch(const SimBatch& batch);

/// Wall-clock RAII timer feeding record_scope(); use via FGCS_OBS_SCOPE.
/// `name` must outlive the scope (a string literal in practice).
class ScopeTimer {
 public:
  explicit ScopeTimer(const char* name)
      : observer_(obs::observer()), name_(name) {
    if (observer_ != nullptr) start_ = std::chrono::steady_clock::now();
  }
  ~ScopeTimer() {
    if (observer_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    observer_->record_scope(
        name_, std::chrono::duration<double>(elapsed).count());
  }
  ScopeTimer(const ScopeTimer&) = delete;
  ScopeTimer& operator=(const ScopeTimer&) = delete;

 private:
  Observer* observer_;
  const char* name_;
  std::chrono::steady_clock::time_point start_{};
};

#define FGCS_OBS_CONCAT_IMPL(a, b) a##b
#define FGCS_OBS_CONCAT(a, b) FGCS_OBS_CONCAT_IMPL(a, b)

/// Times the enclosing scope on the wall clock and feeds the
/// "scope.seconds{scope=<name>}" histogram. Zero-cost when disabled.
#define FGCS_OBS_SCOPE(name) \
  ::fgcs::obs::ScopeTimer FGCS_OBS_CONCAT(fgcs_obs_scope_, __LINE__)(name)

}  // namespace fgcs::obs
