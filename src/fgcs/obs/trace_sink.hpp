// Structured trace-event sink keyed on *simulated* time.
//
// Events follow the Chrome trace-event model (load the JSON output in
// chrome://tracing or https://ui.perfetto.dev): complete spans ("X") and
// instant events ("i"), each with a category, a microsecond timestamp,
// and a track id. Timestamps are sim::SimTime microseconds, so the
// rendered timeline is the *simulation's* timeline — a 92-day testbed run
// shows up as 92 days, whatever wall clock it took.
//
// Tracks map to Perfetto threads (pid 1, tid = track); the testbed assigns
// one track per machine. A bounded sink keeps the most recent `capacity`
// events in a ring buffer so million-event runs stay at a fixed memory
// footprint; `dropped()` reports the evicted count.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "fgcs/sim/time.hpp"

namespace fgcs::obs {

class TraceSink {
 public:
  enum class Phase : char {
    kComplete = 'X',
    kInstant = 'i',
  };

  struct Event {
    Phase phase = Phase::kInstant;
    std::string name;
    std::string category;
    std::int64_t ts_us = 0;
    std::int64_t dur_us = 0;  // complete events only
    std::uint32_t track = 0;
    /// Pre-rendered JSON object *body* ("\"k\":1"), empty for no args.
    std::string args;
  };

  /// `capacity` 0 keeps every event; otherwise the sink is a ring buffer
  /// holding the most recent `capacity` events.
  explicit TraceSink(std::size_t capacity = 0) : capacity_(capacity) {}

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  /// A span covering [start, start + duration] of simulated time.
  void complete(std::string_view category, std::string_view name,
                sim::SimTime start, sim::SimDuration duration,
                std::uint32_t track, std::string args = {});

  /// A zero-duration marker.
  void instant(std::string_view category, std::string_view name,
               sim::SimTime at, std::uint32_t track, std::string args = {});

  /// Names a track in the rendered UI (Perfetto thread name).
  void name_track(std::uint32_t track, std::string_view name);

  /// Events currently retained, oldest first.
  std::vector<Event> events() const;

  /// Retained event count (<= capacity when bounded).
  std::size_t size() const;

  /// Total events ever recorded, including evicted ones.
  std::uint64_t total_recorded() const;

  /// Events evicted by the ring buffer.
  std::uint64_t dropped() const;

  std::size_t capacity() const { return capacity_; }

  void clear();

  /// Writes the Chrome trace-event JSON document.
  void write_chrome_json(std::ostream& out) const;

 private:
  void push(Event&& event);

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::vector<Event> events_;
  std::vector<std::pair<std::uint32_t, std::string>> track_names_;
  std::size_t head_ = 0;  // ring start when bounded and full
  std::uint64_t recorded_ = 0;
};

/// Escapes a string for embedding inside a JSON string literal.
std::string json_escape(std::string_view s);

}  // namespace fgcs::obs
