#include "fgcs/monitor/guest_controller.hpp"

#include <algorithm>

#include "fgcs/obs/observer.hpp"
#include "fgcs/util/error.hpp"

namespace fgcs::monitor {

const char* to_string(GuestAction a) {
  switch (a) {
    case GuestAction::kSetDefaultPriority:
      return "set-default-priority";
    case GuestAction::kSetLowestPriority:
      return "renice-19";
    case GuestAction::kSuspend:
      return "suspend";
    case GuestAction::kResume:
      return "resume";
    case GuestAction::kTerminate:
      return "terminate";
    case GuestAction::kCheckpoint:
      return "checkpoint";
    case GuestAction::kObservedKilled:
      return "observed-killed";
  }
  return "?";
}

void CheckpointPolicy::validate() const {
  fgcs::require(interval >= sim::SimDuration::zero(),
                "checkpoint interval must be >= 0");
  fgcs::require(cost >= sim::SimDuration::zero(),
                "checkpoint cost must be >= 0");
  if (enabled()) {
    fgcs::require(cost < interval,
                  "checkpoint cost must be < interval (else nothing is saved)");
  }
}

GuestController::GuestController(os::Machine& machine, os::ProcessId guest,
                                 int default_nice, CheckpointPolicy checkpoint)
    : machine_(machine),
      guest_(guest),
      default_nice_(default_nice),
      checkpoint_(checkpoint),
      current_nice_(machine.process(guest).nice()),
      last_checkpoint_(machine.now()) {
  fgcs::require(default_nice >= 0 && default_nice <= 19,
                "default_nice must be in [0, 19]");
  checkpoint_.validate();
}

void GuestController::record(GuestAction a, AvailabilityState s) {
  actions_.push_back({machine_.now(), a, s});
}

sim::SimDuration GuestController::unsaved_progress() const {
  if (observed_exit_) return lost_at_exit_;
  const sim::SimDuration progress = machine_.process(guest_).cpu_time();
  return progress > checkpointed_ ? progress - checkpointed_
                                  : sim::SimDuration::zero();
}

void GuestController::maybe_checkpoint(AvailabilityState s) {
  if (!checkpoint_.enabled()) return;
  const sim::SimTime now = machine_.now();
  if (now - last_checkpoint_ < checkpoint_.interval) return;
  // Writing the checkpoint consumes `cost` of work-equivalent: the saved
  // progress excludes it, and progress never moves backwards.
  const sim::SimDuration progress = machine_.process(guest_).cpu_time();
  sim::SimDuration saved = progress > checkpoint_.cost
                               ? progress - checkpoint_.cost
                               : sim::SimDuration::zero();
  last_checkpoint_ = now;
  if (saved <= checkpointed_) return;  // nothing new worth saving
  checkpointed_ = saved;
  ++checkpoint_count_;
  record(GuestAction::kCheckpoint, s);
  obs::emit(obs::FlightEventKind::kGuestCheckpoint, now);
}

void GuestController::apply(const UnavailabilityDetector& detector) {
  if (terminated_) return;
  const os::Process& guest = machine_.process(guest_);
  if (guest.state() == os::ProcState::kExited) {
    // The guest vanished outside our control: natural completion, or an
    // external kill (injected fault / revocation). Record the latter as a
    // terminal action so it is distinguishable from completion, and
    // account the work lost since the last checkpoint.
    terminated_ = true;
    observed_exit_ = true;
    const sim::SimDuration progress = guest.cpu_time();
    lost_at_exit_ = guest.killed() && progress > checkpointed_
                        ? progress - checkpointed_
                        : sim::SimDuration::zero();
    if (guest.killed()) {
      record(GuestAction::kObservedKilled, detector.state());
      obs::emit(obs::FlightEventKind::kGuestWorkLost, machine_.now(), 0, 0,
                lost_at_exit_);
    }
    return;
  }

  const AvailabilityState s = detector.state();
  if (is_failure(s)) {
    const sim::SimDuration progress = guest.cpu_time();
    machine_.terminate(guest_);
    terminated_ = true;
    observed_exit_ = true;
    lost_at_exit_ = progress > checkpointed_ ? progress - checkpointed_
                                             : sim::SimDuration::zero();
    record(GuestAction::kTerminate, s);
    obs::emit(obs::FlightEventKind::kGuestWorkLost, machine_.now(), 0, 0,
              lost_at_exit_);
    return;
  }

  if (detector.transient_high()) {
    if (!suspended_) {
      machine_.suspend(guest_);
      suspended_ = true;
      record(GuestAction::kSuspend, s);
    }
    return;
  }

  if (suspended_) {
    machine_.resume(guest_);
    suspended_ = false;
    record(GuestAction::kResume, s);
  }

  maybe_checkpoint(s);

  const int want_nice =
      s == AvailabilityState::kS2LowestPriority ? 19 : default_nice_;
  if (want_nice != current_nice_) {
    machine_.renice(guest_, want_nice);
    current_nice_ = want_nice;
    record(want_nice == 19 ? GuestAction::kSetLowestPriority
                           : GuestAction::kSetDefaultPriority,
           s);
  }
}

}  // namespace fgcs::monitor
