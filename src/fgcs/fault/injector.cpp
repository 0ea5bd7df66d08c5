#include "fgcs/fault/injector.hpp"

#include <algorithm>

#include "fgcs/obs/observer.hpp"
#include "fgcs/sim/simulation.hpp"
#include "fgcs/util/error.hpp"
#include "fgcs/util/rng.hpp"

namespace fgcs::fault {

namespace {

/// RNG key tag for fault expansion substreams ("FALT").
constexpr std::uint64_t kFaultTag = 0x4641'4C54u;

/// Floor for generated durations: a zero-length window would activate and
/// deactivate in the same event and be invisible to every sampler.
constexpr sim::SimDuration kMinDuration = sim::SimDuration::millis(1);

sim::SimDuration spec_fixed_duration(const FaultSpec& spec) {
  const double minutes =
      spec.duration_minutes >= 0.0 ? spec.duration_minutes : spec.mean_minutes;
  return std::max(kMinDuration, sim::SimDuration::from_seconds(minutes * 60.0));
}

}  // namespace

FaultInjector::FaultInjector(const FaultPlan& plan, std::uint64_t seed,
                             std::uint32_t machines, sim::SimTime begin,
                             sim::SimTime end)
    : machines_(machines), begin_(begin), end_(end) {
  fgcs::require(machines >= 1, "FaultInjector: needs at least one machine");
  fgcs::require(end > begin, "FaultInjector: empty horizon");
  plan.validate();

  const sim::SimDuration horizon = end - begin;
  for (std::size_t s = 0; s < plan.specs.size(); ++s) {
    const FaultSpec& spec = plan.specs[s];
    for (std::uint32_t m = 0; m < machines; ++m) {
      if (spec.machine != kAllMachines &&
          spec.machine != static_cast<std::int64_t>(m)) {
        continue;
      }
      util::RngStream rng(seed, {kFaultTag, s, m});
      auto emit = [&](sim::SimTime start, sim::SimDuration duration) {
        if (start < begin || start >= end) return;
        duration = std::max(duration, kMinDuration);
        if (start + duration > end) duration = end - start;
        FaultEvent ev;
        ev.kind = spec.kind;
        ev.machine = m;
        ev.start = start;
        ev.duration = duration;
        if (spec.kind == FaultKind::kClockSkew) {
          ev.skew = sim::SimDuration::from_seconds(spec.skew_ms / 1000.0);
        }
        events_.push_back(ev);
      };

      if (spec.scripted()) {
        for (const double h : spec.at_hours) {
          emit(begin + sim::SimDuration::from_seconds(h * 3600.0),
               spec_fixed_duration(spec));
        }
      } else {
        const double mean_gap_s = 86400.0 / spec.rate_per_day;
        sim::SimTime t = begin;
        while (true) {
          t += sim::SimDuration::from_seconds(rng.exponential(mean_gap_s));
          if (t >= end) break;
          sim::SimDuration duration;
          if (spec.duration_minutes >= 0.0) {
            duration = spec_fixed_duration(spec);
          } else {
            duration = sim::SimDuration::from_seconds(
                rng.exponential(spec.mean_minutes * 60.0));
          }
          emit(t, duration);
          // Guard against degenerate plans flooding the horizon: a spec
          // can contribute at most one occurrence per second of horizon.
          if (events_.size() > static_cast<std::size_t>(
                                   horizon.as_seconds()) + 1000000u) {
            break;
          }
        }
      }
    }
  }

  std::sort(events_.begin(), events_.end(),
            [](const FaultEvent& a, const FaultEvent& b) {
              if (a.machine != b.machine) return a.machine < b.machine;
              if (a.start != b.start) return a.start < b.start;
              return static_cast<int>(a.kind) < static_cast<int>(b.kind);
            });

  machine_offset_.assign(machines_ + 1, 0);
  for (const auto& ev : events_) ++machine_offset_[ev.machine + 1];
  for (std::uint32_t m = 0; m < machines_; ++m) {
    machine_offset_[m + 1] += machine_offset_[m];
  }
}

std::span<const FaultEvent> FaultInjector::events_for(
    std::uint32_t machine) const {
  fgcs::require(machine < machines_, "FaultInjector: machine id out of range");
  return std::span<const FaultEvent>(events_).subspan(
      machine_offset_[machine],
      machine_offset_[machine + 1] - machine_offset_[machine]);
}

MachineFaultSession::MachineFaultSession(const FaultInjector& injector,
                                         std::uint32_t machine)
    : events_(injector.events_for(machine)) {
  for (const auto& ev : events_) {
    if (ev.kind == FaultKind::kGuestKill) kills_.push_back(ev.start);
  }
}

void MachineFaultSession::schedule(sim::Simulation& simulation) {
  for (const auto& ev : events_) {
    if (ev.kind == FaultKind::kGuestKill) continue;
    const FaultEvent* event = &ev;
    simulation.at(ev.start, [this, event] {
      switch (event->kind) {
        case FaultKind::kCrash:
          ++crash_depth_;
          break;
        case FaultKind::kSensorDropout:
          ++dropout_depth_;
          break;
        case FaultKind::kClockSkew:
          skew_ += event->skew;
          break;
        case FaultKind::kGuestKill:
          break;
      }
      obs::emit(obs::FlightEventKind::kFaultInjected, event->start,
                static_cast<int>(event->kind), 0, event->duration);
    });
    simulation.at(ev.start + ev.duration, [this, event] {
      switch (event->kind) {
        case FaultKind::kCrash:
          --crash_depth_;
          break;
        case FaultKind::kSensorDropout:
          --dropout_depth_;
          break;
        case FaultKind::kClockSkew:
          skew_ -= event->skew;
          break;
        case FaultKind::kGuestKill:
          break;
      }
    });
  }
}

}  // namespace fgcs::fault
