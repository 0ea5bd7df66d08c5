#include "fgcs/monitor/detector.hpp"

#include <algorithm>
#include <cmath>

#include "fgcs/obs/observer.hpp"
#include "fgcs/util/error.hpp"

namespace fgcs::monitor {

UnavailabilityDetector::UnavailabilityDetector(ThresholdPolicy policy,
                                               util::Arena* arena)
    : policy_(policy),
      transitions_(util::ArenaAllocator<Transition>(arena)),
      episodes_(util::ArenaAllocator<UnavailabilityEpisode>(arena)),
      gaps_(util::ArenaAllocator<SensorGap>(arena)) {
  policy_.validate();
}

AvailabilityState UnavailabilityDetector::observe(HostSample sample) {
  FGCS_ASSERT(!saw_sample_ || sample.time >= last_time_);
  // vmstat-style inputs can be momentarily out of range (counter skew,
  // rounding); NaNs however indicate a broken sampler.
  FGCS_ASSERT(!std::isnan(sample.host_cpu) && !std::isnan(sample.free_mem_mb));
  sample.host_cpu = std::clamp(sample.host_cpu, 0.0, 1.0);
  sample.free_mem_mb = std::max(0.0, sample.free_mem_mb);
  saw_sample_ = true;
  last_time_ = sample.time;
  obs::detector_samples(sample.time, {}, 1);

  AvailabilityState next;
  // CPU-excursion tracking is orthogonal to the memory check (§3.2.3);
  // only machine downtime resets it.
  if (sample.service_alive) {
    if (sample.host_cpu > policy_.th2) {
      if (!high_since_valid_) {
        high_since_valid_ = true;
        high_since_ = sample.time;
      }
    } else {
      high_since_valid_ = false;
    }
  } else {
    high_since_valid_ = false;
  }

  if (!sample.service_alive) {
    next = AvailabilityState::kS5MachineUnavailable;
  } else if (sample.free_mem_mb < policy_.guest_working_set_mb) {
    // S4 is immediate: starting a guest (or keeping one) would thrash (§4).
    next = AvailabilityState::kS4MemoryThrashing;
  } else if (sample.host_cpu > policy_.th2) {
    const bool sustained =
        (sample.time - high_since_) >= policy_.sustain_window;
    if (state_ == AvailabilityState::kS3CpuUnavailable || sustained) {
      next = AvailabilityState::kS3CpuUnavailable;
    } else if (state_ == AvailabilityState::kS1FullAvailability ||
               state_ == AvailabilityState::kS2LowestPriority) {
      // Transient spike: the guest is merely suspended; the model stays in
      // S1/S2 (§4's definition of those states).
      next = state_;
    } else {
      // Recovering from a failure state straight into high load.
      next = AvailabilityState::kS2LowestPriority;
    }
  } else {
    high_since_valid_ = false;
    next = sample.host_cpu >= policy_.th1
               ? AvailabilityState::kS2LowestPriority
               : AvailabilityState::kS1FullAvailability;
  }

  if (next != state_) enter(next, sample.time, sample);
  return state_;
}

AvailabilityState UnavailabilityDetector::observe_run(
    sim::SimTime t0, sim::SimDuration stride, std::uint64_t count,
    double host_cpu, double free_mem_mb, bool service_alive) {
  if (count == 0) return state_;
  FGCS_ASSERT(!saw_sample_ || t0 >= last_time_);
  FGCS_ASSERT(stride >= sim::SimDuration::zero());
  FGCS_ASSERT(!std::isnan(host_cpu) && !std::isnan(free_mem_mb));
  host_cpu = std::clamp(host_cpu, 0.0, 1.0);
  free_mem_mb = std::max(0.0, free_mem_mb);
  saw_sample_ = true;
  last_time_ = t0 + stride * static_cast<std::int64_t>(count - 1);
  obs::detector_samples(t0, stride, count);

  // The (clamped) sample enter() snapshots when it opens an episode;
  // only its time varies across the run.
  HostSample rep;
  rep.host_cpu = host_cpu;
  rep.free_mem_mb = free_mem_mb;
  rep.service_alive = service_alive;

  if (!service_alive) {
    high_since_valid_ = false;
    if (state_ != AvailabilityState::kS5MachineUnavailable) {
      rep.time = t0;
      enter(AvailabilityState::kS5MachineUnavailable, t0, rep);
    }
    return state_;
  }

  // CPU-excursion tracking runs before the memory check in the scalar
  // path; with constant inputs its end-of-run state collapses to this.
  if (host_cpu > policy_.th2) {
    if (!high_since_valid_) {
      high_since_valid_ = true;
      high_since_ = t0;
    }
  } else {
    high_since_valid_ = false;
  }

  if (free_mem_mb < policy_.guest_working_set_mb) {
    if (state_ != AvailabilityState::kS4MemoryThrashing) {
      rep.time = t0;
      enter(AvailabilityState::kS4MemoryThrashing, t0, rep);
    }
    return state_;
  }

  if (host_cpu > policy_.th2) {
    // Already failed on CPU: every sample keeps S3.
    if (state_ == AvailabilityState::kS3CpuUnavailable) return state_;
    if (t0 - high_since_ >= policy_.sustain_window) {
      rep.time = t0;
      enter(AvailabilityState::kS3CpuUnavailable, t0, rep);
      return state_;
    }
    // Pre-sustain samples hold S1/S2 (transient spike) or force S2 when
    // recovering from a failure state.
    AvailabilityState inter = state_;
    if (state_ != AvailabilityState::kS1FullAvailability &&
        state_ != AvailabilityState::kS2LowestPriority) {
      inter = AvailabilityState::kS2LowestPriority;
    }
    if (inter != state_) {
      rep.time = t0;
      enter(inter, t0, rep);
    }
    if (stride == sim::SimDuration::zero()) return state_;
    // First sample index with (t_i - high_since_) >= sustain_window;
    // need > 0 here because the first sample was not yet sustained.
    const std::int64_t need =
        (high_since_ + policy_.sustain_window - t0).as_micros();
    const std::int64_t step = stride.as_micros();
    const auto istar = static_cast<std::uint64_t>((need + step - 1) / step);
    if (istar < count) {
      const sim::SimTime ts3 =
          t0 + stride * static_cast<std::int64_t>(istar);
      rep.time = ts3;
      // enter() backdates the S3 episode to high_since_, exactly as the
      // scalar path would at this sample.
      enter(AvailabilityState::kS3CpuUnavailable, ts3, rep);
    }
    return state_;
  }

  const AvailabilityState next = host_cpu >= policy_.th1
                                     ? AvailabilityState::kS2LowestPriority
                                     : AvailabilityState::kS1FullAvailability;
  if (next != state_) {
    rep.time = t0;
    enter(next, t0, rep);
  }
  return state_;
}

void UnavailabilityDetector::enter(AvailabilityState next, sim::SimTime when,
                                   const HostSample& sample) {
  transitions_.push_back({when, state_, next});
  obs::emit(obs::FlightEventKind::kStateTransition, when,
            static_cast<int>(state_), static_cast<int>(next));

  if (is_failure(state_) && !episodes_.empty() && episodes_.back().open) {
    episodes_.back().end = when;
    episodes_.back().open = false;
    obs::emit(obs::FlightEventKind::kEpisodeClosed, when,
              static_cast<int>(episodes_.back().cause), 0,
              episodes_.back().duration());
  }
  if (is_failure(next)) {
    UnavailabilityEpisode ep;
    // S3 episodes begin when the load excursion began (the guest was
    // already suspended through the confirmation window) — unless we come
    // straight out of another failure episode, which owns that time. The
    // excursion may also have started *before* an intervening S4/S5
    // episode; clamp so episodes never overlap.
    ep.start = when;
    if (next == AvailabilityState::kS3CpuUnavailable && high_since_valid_ &&
        !is_failure(state_)) {
      ep.start = high_since_;
      if (!episodes_.empty()) {
        ep.start = std::max(ep.start, episodes_.back().end);
      }
    }
    ep.end = ep.start;
    ep.cause = next;
    ep.host_cpu_at_start = sample.host_cpu;
    ep.free_mem_at_start = sample.free_mem_mb;
    episodes_.push_back(ep);
    obs::emit({.at = ep.start,
               .kind = obs::FlightEventKind::kEpisodeOpened,
               .machine = obs::current_track(),
               .a = static_cast<int>(ep.cause),
               .host_cpu = ep.host_cpu_at_start,
               .free_mem_mb = ep.free_mem_at_start});
  }
  state_ = next;
}

void UnavailabilityDetector::record_gap(sim::SimTime start, sim::SimTime end) {
  FGCS_ASSERT(end > start);
  FGCS_ASSERT(!saw_sample_ || start >= last_time_);
  // Merge back-to-back gaps (a dropout spanning several sample periods is
  // reported once per period by the sampler loop).
  if (!gaps_.empty() && gaps_.back().end == start &&
      gaps_.back().held == state_) {
    gaps_.back().end = end;
  } else {
    gaps_.push_back({start, end, state_});
  }
  // The excursion evidence is interrupted: load may have dipped below Th2
  // unobserved, so the sustain clock must restart after the gap.
  high_since_valid_ = false;
  last_time_ = end;
  saw_sample_ = true;
  obs::emit(obs::FlightEventKind::kSensorGap, start, 0, 0, end - start);
}

void UnavailabilityDetector::finish(sim::SimTime end) {
  if (!episodes_.empty() && episodes_.back().open) {
    episodes_.back().end = end;
    episodes_.back().open = false;
    obs::emit(obs::FlightEventKind::kEpisodeClosed, end,
              static_cast<int>(episodes_.back().cause), 0,
              episodes_.back().duration());
  }
}

}  // namespace fgcs::monitor
