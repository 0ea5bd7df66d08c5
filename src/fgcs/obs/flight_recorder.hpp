// Flight recorder: a fixed-size ring of recent structured events that can
// dump a sim-time-ordered post-mortem when something goes wrong.
//
// The trace sink (trace_sink.hpp) answers "show me everything, for a
// human with a trace viewer"; the flight recorder answers "what were the
// last N things that happened before the incident". It keeps plain POD
// events — state transitions, fault injections, guest lifecycle actions,
// shard progress — in a mutex-protected ring (the recorded events are
// rare: per-transition and per-episode, never per-tick or per-sample),
// and writes a text post-mortem to disk when
//
//   * a fault fires (the first injected fault latches an automatic dump
//     when Options::dump_on_fault is set),
//   * a testkit invariant check fails (the testkit hooks call dump()), or
//   * a signal arrives (the CLI forwards SIGUSR1 to dump()).
//
// The dump is sorted by sim time (ties broken by a total order over the
// event fields), so two runs of the same seed produce byte-identical
// post-mortems — the property the "flight-recorder" differential oracle
// checks.
//
// Install next to the Observer: construct one, then
// Observer::set_flight_recorder(&rec) before installing the observer.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "fgcs/sim/time.hpp"

namespace fgcs::obs {

enum class FlightEventKind : std::uint8_t {
  kStateTransition = 0,
  kFaultInjected = 1,
  kEpisodeOpened = 2,
  kEpisodeClosed = 3,
  kSensorGap = 4,
  kGuestCheckpoint = 5,
  kGuestRestart = 6,
  kGuestMigration = 7,
  kGuestCompleted = 8,
  kGuestWorkLost = 9,
  kMachineDone = 10,
  kShardDone = 11,
  /// A machine failed its shard attempt enough times that the supervisor
  /// quarantined it (latches an automatic dump like the first injected
  /// fault — a quarantine is the supervisor declaring a post-mortem).
  kMachineQuarantined = 12,
  /// A shard attempt failed and is being retried (`machine` is the shard
  /// id, a = attempt number, b = the machine that failed it).
  kShardRetry = 13,
  // Kinds from here on are counted and traced but never kept in the
  // flight ring: they fire per run, per ingested record or per query.
  /// A Simulation run_until (a = 0) or run_all (a = 1) span; `count`
  /// events executed.
  kSimRun = 14,
  /// One availability record ingested by the serving feed.
  kServeIngest = 15,
  /// `count` serving queries answered.
  kServeQueries = 16,
  /// The serving feed published a fresh fleet snapshot.
  kSnapshotSwap = 17,
};

/// One telemetry event — the struct every obs surface folds. `machine` is
/// the thread's current track (the machine id in testbed runs; the shard
/// id for kShardDone/kShardRetry). `a`/`b` are kind-specific small
/// integers (from/to states, cause, fault kind, first machine / machine
/// count), `dur` the associated sim-duration (episode or gap length,
/// fault duration, work lost). The trailing fields only feed the Chrome
/// trace's args and the serve counters; the ring's order and dump
/// format ignore them.
struct FlightEvent {
  sim::SimTime at{};
  FlightEventKind kind = FlightEventKind::kStateTransition;
  std::uint32_t machine = 0;
  std::int32_t a = 0;
  std::int32_t b = 0;
  sim::SimDuration dur{};
  /// Events of a sim run, samples of a finished machine, serve queries.
  std::uint64_t count = 0;
  /// Host CPU load and free memory when an episode opened.
  double host_cpu = 0.0;
  double free_mem_mb = 0.0;
};

/// "S1".."S5" for a 1-based availability state; "S?" out of range.
const char* state_name(int state);

/// fault::FaultKind names ("crash", "dropout", "skew", "guest-kill");
/// "?" out of range.
const char* fault_kind_name(int kind);

/// Stable sim-time order: (at, kind, machine, a, b, dur). Total over all
/// fields so equal-time events sort deterministically.
bool flight_event_before(const FlightEvent& x, const FlightEvent& y);

/// Copy of `events` sorted with flight_event_before.
std::vector<FlightEvent> sim_time_ordered(std::vector<FlightEvent> events);

/// One post-mortem line (no trailing newline), e.g.
/// "[10d 03:25:15.000000] m0002 transition S1->S3".
std::string format_flight_event(const FlightEvent& e);

class FlightRecorder {
 public:
  struct Options {
    /// Ring capacity; oldest events are dropped past it.
    std::size_t capacity = 4096;
    /// Post-mortem destination; "" disables automatic and dump() writes.
    std::string dump_path;
    /// Write the post-mortem when the first fault event is recorded.
    bool dump_on_fault = true;
  };

  FlightRecorder() : FlightRecorder(Options{}) {}
  explicit FlightRecorder(const Options& options);

  FlightRecorder(const FlightRecorder&) = delete;
  FlightRecorder& operator=(const FlightRecorder&) = delete;

  /// Appends an event (thread-safe); may trigger the first-fault dump.
  void record(const FlightEvent& e);

  /// Ring contents, oldest recorded first (insertion order).
  std::vector<FlightEvent> events() const;

  std::uint64_t recorded() const;
  std::uint64_t dropped() const;
  std::size_t capacity() const { return options_.capacity; }
  const std::string& dump_path() const { return options_.dump_path; }

  /// True once a post-mortem has been written (or latched by a fault).
  bool dumped() const;

  /// Writes the post-mortem to Options::dump_path now (e.g. on a signal
  /// or an invariant failure). Returns false when no path is configured
  /// or the write failed.
  bool dump(std::string_view reason);

  /// Renders the post-mortem (header + sim-time-ordered events) to `out`.
  void write(std::ostream& out, std::string_view reason) const;

 private:
  bool write_dump(std::string_view reason);

  Options options_;
  mutable std::mutex mutex_;
  std::vector<FlightEvent> ring_;
  std::size_t head_ = 0;
  std::uint64_t recorded_ = 0;
  bool dumped_ = false;
};

}  // namespace fgcs::obs
