#include "fgcs/obs/flight_recorder.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <ostream>
#include <tuple>

#include "fgcs/util/error.hpp"

namespace fgcs::obs {

namespace {

// "[10d 03:25:15.000123]" from the sim-time micros — integer math only,
// so formatting is deterministic.
std::string format_stamp(sim::SimTime at) {
  std::int64_t us = at.as_micros();
  const char* sign = "";
  if (us < 0) {
    sign = "-";
    us = -us;
  }
  const std::int64_t days = us / 86'400'000'000;
  us -= days * 86'400'000'000;
  const std::int64_t hours = us / 3'600'000'000;
  us -= hours * 3'600'000'000;
  const std::int64_t minutes = us / 60'000'000;
  us -= minutes * 60'000'000;
  const std::int64_t seconds = us / 1'000'000;
  us -= seconds * 1'000'000;
  char buf[96];
  std::snprintf(buf, sizeof buf, "[%s%lldd %02lld:%02lld:%02lld.%06lld]",
                sign, static_cast<long long>(days),
                static_cast<long long>(hours), static_cast<long long>(minutes),
                static_cast<long long>(seconds), static_cast<long long>(us));
  return buf;
}

}  // namespace

const char* state_name(int state) {
  static const char* const kNames[] = {"S1", "S2", "S3", "S4", "S5"};
  return (state >= 1 && state <= 5) ? kNames[state - 1] : "S?";
}

const char* fault_kind_name(int kind) {
  static const char* const kNames[] = {"crash", "dropout", "skew",
                                       "guest-kill"};
  return (kind >= 0 && kind < 4) ? kNames[kind] : "?";
}

bool flight_event_before(const FlightEvent& x, const FlightEvent& y) {
  return std::make_tuple(x.at.as_micros(), static_cast<int>(x.kind), x.machine,
                         x.a, x.b, x.dur.as_micros()) <
         std::make_tuple(y.at.as_micros(), static_cast<int>(y.kind), y.machine,
                         y.a, y.b, y.dur.as_micros());
}

std::vector<FlightEvent> sim_time_ordered(std::vector<FlightEvent> events) {
  std::stable_sort(events.begin(), events.end(), flight_event_before);
  return events;
}

std::string format_flight_event(const FlightEvent& e) {
  char body[128];
  const auto dur_us = static_cast<long long>(e.dur.as_micros());
  switch (e.kind) {
    case FlightEventKind::kStateTransition:
      std::snprintf(body, sizeof body, "transition S%d->S%d", e.a, e.b);
      break;
    case FlightEventKind::kFaultInjected:
      std::snprintf(body, sizeof body, "fault %s dur_us=%lld",
                    fault_kind_name(e.a), dur_us);
      break;
    case FlightEventKind::kEpisodeOpened:
      std::snprintf(body, sizeof body, "episode_open cause=S%d", e.a);
      break;
    case FlightEventKind::kEpisodeClosed:
      std::snprintf(body, sizeof body, "episode_close cause=S%d dur_us=%lld",
                    e.a, dur_us);
      break;
    case FlightEventKind::kSensorGap:
      std::snprintf(body, sizeof body, "sensor_gap dur_us=%lld", dur_us);
      break;
    case FlightEventKind::kGuestCheckpoint:
      std::snprintf(body, sizeof body, "guest_checkpoint");
      break;
    case FlightEventKind::kGuestRestart:
      std::snprintf(body, sizeof body, "guest_restart");
      break;
    case FlightEventKind::kGuestMigration:
      std::snprintf(body, sizeof body, "guest_migration");
      break;
    case FlightEventKind::kGuestCompleted:
      std::snprintf(body, sizeof body, "guest_completed");
      break;
    case FlightEventKind::kGuestWorkLost:
      std::snprintf(body, sizeof body, "guest_work_lost dur_us=%lld", dur_us);
      break;
    case FlightEventKind::kMachineDone:
      std::snprintf(body, sizeof body, "machine_done episodes=%d samples=%d",
                    e.a, e.b);
      break;
    case FlightEventKind::kShardDone:
      std::snprintf(body, sizeof body,
                    "shard_done first_machine=%d machines=%d", e.a, e.b);
      break;
    case FlightEventKind::kMachineQuarantined:
      std::snprintf(body, sizeof body, "machine_quarantined failures=%d", e.a);
      break;
    case FlightEventKind::kShardRetry:
      std::snprintf(body, sizeof body,
                    "shard_retry attempt=%d failed_machine=%d", e.a, e.b);
      break;
    default:
      std::snprintf(body, sizeof body, "event kind=%d a=%d b=%d",
                    static_cast<int>(e.kind), e.a, e.b);
      break;
  }
  char line[200];
  const char* scope = e.kind == FlightEventKind::kShardDone ||
                              e.kind == FlightEventKind::kShardRetry
                          ? "shard"
                          : "m";
  std::snprintf(line, sizeof line, "%s %s%04u %s", format_stamp(e.at).c_str(),
                scope, e.machine, body);
  return line;
}

FlightRecorder::FlightRecorder(const Options& options) : options_(options) {
  fgcs::require(options_.capacity > 0,
                "FlightRecorder capacity must be positive");
  ring_.reserve(options_.capacity);
}

void FlightRecorder::record(const FlightEvent& e) {
  bool fire = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (ring_.size() < options_.capacity) {
      ring_.push_back(e);
    } else {
      ring_[head_] = e;
      head_ = (head_ + 1) % options_.capacity;
    }
    ++recorded_;
    // A quarantine is the supervisor giving up on a machine — as much of
    // a "something went wrong, capture the context" moment as the first
    // injected fault, so it latches the same automatic dump.
    const bool latching =
        e.kind == FlightEventKind::kFaultInjected ||
        e.kind == FlightEventKind::kMachineQuarantined;
    if (latching && options_.dump_on_fault && !options_.dump_path.empty() &&
        !dumped_) {
      dumped_ = true;  // latch before unlocking so only one thread dumps
      fire = true;
    }
  }
  if (fire) {
    write_dump(FlightEventKind::kMachineQuarantined == e.kind
                   ? "machine-quarantined"
                   : "fault-injected");
  }
}

std::vector<FlightEvent> FlightRecorder::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FlightEvent> out;
  out.reserve(ring_.size());
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(head_ + i) % ring_.size()]);
  }
  return out;
}

std::uint64_t FlightRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::uint64_t FlightRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_ - ring_.size();
}

bool FlightRecorder::dumped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dumped_;
}

bool FlightRecorder::dump(std::string_view reason) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (options_.dump_path.empty()) return false;
    dumped_ = true;
  }
  return write_dump(reason);
}

void FlightRecorder::write(std::ostream& out, std::string_view reason) const {
  const std::vector<FlightEvent> retained = events();
  out << "# fgcs flight recorder post-mortem\n";
  out << "# reason: " << reason << "\n";
  out << "# events: " << retained.size() << " retained, " << dropped()
      << " dropped (capacity " << options_.capacity << ")\n";
  for (const auto& e : sim_time_ordered(retained)) {
    out << format_flight_event(e) << "\n";
  }
}

bool FlightRecorder::write_dump(std::string_view reason) {
  std::ofstream out(options_.dump_path,
                    std::ios::out | std::ios::binary | std::ios::trunc);
  if (!out) return false;
  write(out, reason);
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace fgcs::obs
