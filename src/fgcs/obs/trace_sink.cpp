#include "fgcs/obs/trace_sink.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>

namespace fgcs::obs {

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void TraceSink::push(Event&& event) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++recorded_;
  if (capacity_ == 0) {
    events_.push_back(std::move(event));
    return;
  }
  if (events_.size() < capacity_) {
    events_.push_back(std::move(event));
    return;
  }
  // Ring is full: overwrite the oldest slot.
  events_[head_] = std::move(event);
  head_ = (head_ + 1) % capacity_;
}

void TraceSink::complete(std::string_view category, std::string_view name,
                         sim::SimTime start, sim::SimDuration duration,
                         std::uint32_t track, std::string args) {
  Event e;
  e.phase = Phase::kComplete;
  e.name = std::string(name);
  e.category = std::string(category);
  e.ts_us = start.as_micros();
  e.dur_us = duration.as_micros();
  e.track = track;
  e.args = std::move(args);
  push(std::move(e));
}

void TraceSink::instant(std::string_view category, std::string_view name,
                        sim::SimTime at, std::uint32_t track,
                        std::string args) {
  Event e;
  e.phase = Phase::kInstant;
  e.name = std::string(name);
  e.category = std::string(category);
  e.ts_us = at.as_micros();
  e.track = track;
  e.args = std::move(args);
  push(std::move(e));
}

void TraceSink::name_track(std::uint32_t track, std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [id, existing] : track_names_) {
    if (id == track) {
      existing = std::string(name);
      return;
    }
  }
  track_names_.emplace_back(track, std::string(name));
}

std::vector<TraceSink::Event> TraceSink::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Event> out;
  out.reserve(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[(head_ + i) % std::max<std::size_t>(
                              events_.size(), 1)]);
  }
  return out;
}

std::size_t TraceSink::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_.size();
}

std::uint64_t TraceSink::total_recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_;
}

std::uint64_t TraceSink::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return recorded_ - events_.size();
}

void TraceSink::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  events_.clear();
  head_ = 0;
  recorded_ = 0;
}

void TraceSink::write_chrome_json(std::ostream& out) const {
  const auto snapshot = events();
  std::vector<std::pair<std::uint32_t, std::string>> tracks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    tracks = track_names_;
  }

  out << "{\"traceEvents\":[";
  bool first = true;
  auto separator = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n  ";
  };
  for (const auto& [track, name] : tracks) {
    separator();
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << track
        << ",\"args\":{\"name\":\"" << json_escape(name) << "\"}}";
  }
  for (const auto& e : snapshot) {
    separator();
    out << "{\"name\":\"" << json_escape(e.name) << "\",\"cat\":\""
        << json_escape(e.category) << "\",\"ph\":\""
        << static_cast<char>(e.phase) << "\",\"ts\":" << e.ts_us
        << ",\"pid\":1,\"tid\":" << e.track;
    if (e.phase == Phase::kComplete) out << ",\"dur\":" << e.dur_us;
    if (e.phase == Phase::kInstant) out << ",\"s\":\"t\"";
    if (!e.args.empty()) out << ",\"args\":{" << e.args << "}";
    out << "}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

}  // namespace fgcs::obs
