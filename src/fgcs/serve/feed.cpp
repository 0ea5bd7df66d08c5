#include "fgcs/serve/feed.hpp"

#include <algorithm>

#include "fgcs/util/error.hpp"

namespace fgcs::serve {

void ClassHistory::add(double length_h) {
  const auto it = std::upper_bound(sorted_h.begin(), sorted_h.end(), length_h);
  sorted_h.insert(it, length_h);
  sum_h += length_h;
}

AvailabilityFeed::AvailabilityFeed(FeedConfig config)
    : config_(config), calendar_(config.start_dow) {
  fgcs::require(config_.machines > 0, "serve feed needs at least one machine");
  build_.reserve(config_.machines);
  auto initial = std::make_shared<FleetSnapshot>();
  initial->config = config_;
  initial->machines.reserve(config_.machines);
  for (std::uint32_t m = 0; m < config_.machines; ++m) {
    auto state = std::make_shared<MachineState>();
    state->last_start = config_.horizon_start;
    state->last_end = config_.horizon_start;
    initial->machines.push_back(state);
    build_.push_back(std::move(state));
  }
  snapshot_.store(std::move(initial), std::memory_order_release);
}

MachineState& AvailabilityFeed::writable(trace::MachineId machine) {
  std::shared_ptr<MachineState>& slot = build_[machine];
  // use_count > 1 means a published snapshot still references this state;
  // clone before mutating so pinned readers keep a stable view.
  if (slot.use_count() > 1) slot = std::make_shared<MachineState>(*slot);
  return *slot;
}

void AvailabilityFeed::ingest(const trace::UnavailabilityRecord& record) {
  fgcs::require(record.machine < config_.machines,
                "serve ingest: machine id out of range");
  fgcs::require(record.end >= record.start,
                "serve ingest: episode ends before it starts");
  std::lock_guard<std::mutex> lock(mutex_);
  MachineState& s = writable(record.machine);
  fgcs::require(s.episodes == 0 || record.start >= s.last_start,
                "serve ingest: sim time moved backwards on this machine");
  // The availability gap closed by this episode: from the previous
  // episode's end to this one's start, classified by the day class of the
  // gap's start — exactly SemiMarkovPredictor::interval_samples, one gap
  // at a time. Non-positive gaps (back-to-back or overlapping episodes)
  // contribute no sample there either.
  if (s.episodes > 0 && record.start > s.last_end) {
    const sim::SimTime gap_start = s.last_end;
    const double length_h = (record.start - gap_start).as_hours();
    s.gaps[calendar_.is_weekend(gap_start) ? 1 : 0].add(length_h);
  }
  s.last_start = record.start;
  s.last_end = record.end;
  s.open = false;
  ++s.episodes;
  const int cause = static_cast<int>(record.cause);
  if (cause >= 1 && cause <= obs::kStateCount) {
    ++s.cause_episodes[cause - 1];
  }
  const double minutes = record.duration().as_minutes();
  const auto* bounds_end = kDurationMinuteBounds + kDurationBuckets - 1;
  const auto* it =
      std::lower_bound(kDurationMinuteBounds, bounds_end, minutes);
  ++s.duration_buckets[it - kDurationMinuteBounds];
  s.down_sum_h += record.duration().as_hours();

  ++events_;
  ++since_publish_;
  obs::emit(obs::FlightEventKind::kServeIngest, record.end);
  if (config_.publish_every != 0 && since_publish_ >= config_.publish_every) {
    publish_locked();
  }
}

void AvailabilityFeed::open_episode(trace::MachineId machine,
                                    sim::SimTime at) {
  fgcs::require(machine < config_.machines,
                "serve ingest: machine id out of range");
  std::lock_guard<std::mutex> lock(mutex_);
  MachineState& s = writable(machine);
  fgcs::require(s.episodes == 0 || at >= s.last_start,
                "serve ingest: sim time moved backwards on this machine");
  s.open = true;
  s.open_start = at;
}

void AvailabilityFeed::on_flight_event(const obs::FlightEvent& event) {
  switch (event.kind) {
    case obs::FlightEventKind::kEpisodeOpened:
      open_episode(event.machine, event.at);
      break;
    case obs::FlightEventKind::kEpisodeClosed: {
      trace::UnavailabilityRecord record;
      record.machine = event.machine;
      record.start = event.at - event.dur;
      record.end = event.at;
      record.cause = static_cast<monitor::AvailabilityState>(event.a);
      ingest(record);
      break;
    }
    default:
      break;  // other event kinds carry nothing the predictor needs
  }
}

void AvailabilityFeed::publish_locked() {
  auto next = std::make_shared<FleetSnapshot>();
  next->version = ++version_;
  next->events = events_;
  next->config = config_;
  next->machines.assign(build_.begin(), build_.end());
  snapshot_.store(std::move(next), std::memory_order_release);
  since_publish_ = 0;
  obs::emit({.kind = obs::FlightEventKind::kSnapshotSwap});
}

void AvailabilityFeed::publish() {
  std::lock_guard<std::mutex> lock(mutex_);
  publish_locked();
}

sim::SimTime AvailabilityFeed::watermark(trace::MachineId machine) const {
  fgcs::require(machine < config_.machines,
                "serve watermark: machine id out of range");
  std::lock_guard<std::mutex> lock(mutex_);
  const MachineState& s = *build_[machine];
  if (s.open) return s.open_start;
  if (s.episodes > 0) return s.last_start;
  return config_.horizon_start;
}

std::uint64_t AvailabilityFeed::events_ingested() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

std::uint64_t AvailabilityFeed::snapshots_published() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return version_;
}

}  // namespace fgcs::serve
