#include "fgcs/core/guest_study.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "fgcs/fault/injector.hpp"
#include "fgcs/obs/observer.hpp"
#include "fgcs/stats/descriptive.hpp"
#include "fgcs/trace/index.hpp"
#include "fgcs/util/error.hpp"
#include "fgcs/util/rng.hpp"
#include "fgcs/util/table.hpp"

namespace fgcs::core {

using sim::SimDuration;
using sim::SimTime;

void GuestLifecycleConfig::validate() const {
  fgcs::require(job_length > SimDuration::zero(), "job_length must be > 0");
  fgcs::require(submit_spacing > SimDuration::zero(),
                "submit_spacing must be > 0");
  fgcs::require(first_submit_day >= 0, "first_submit_day must be >= 0");
  fgcs::require(checkpoint_interval >= SimDuration::zero(),
                "checkpoint_interval must be >= 0");
  fgcs::require(checkpoint_cost >= SimDuration::zero(),
                "checkpoint_cost must be >= 0");
  fgcs::require(backoff_initial > SimDuration::zero(),
                "backoff_initial must be > 0");
  fgcs::require(backoff_cap >= backoff_initial,
                "backoff_cap must be >= backoff_initial");
  fgcs::require(backoff_factor >= 1.0, "backoff_factor must be >= 1.0");
  fgcs::require(backoff_jitter >= 0.0 && backoff_jitter < 1.0,
                "backoff_jitter must be in [0, 1)");
}

namespace {

/// Substream tag for backoff jitter ("GJIT").
constexpr std::uint64_t kJitterTag = 0x474A4954u;

/// Capped exponential backoff with deterministic jitter. `failures` is the
/// consecutive-failure count before this one.
SimDuration backoff_delay(const GuestLifecycleConfig& cfg, std::uint64_t job,
                          std::uint32_t failures, std::uint64_t draw) {
  double scale = 1.0;
  for (std::uint32_t i = 0; i < failures && scale < 1e6; ++i) {
    scale *= cfg.backoff_factor;
  }
  SimDuration base = cfg.backoff_initial * scale;
  if (base > cfg.backoff_cap) base = cfg.backoff_cap;
  util::RngStream rng(cfg.seed, {kJitterTag, job, draw});
  const double u = rng.uniform(1.0 - cfg.backoff_jitter,
                               1.0 + cfg.backoff_jitter);
  SimDuration jittered = base * u;
  if (jittered <= SimDuration::zero()) jittered = SimDuration::micros(1);
  return jittered;
}

/// Scheduled guest-kill instants per machine, sorted (empty w/o a plan).
std::vector<std::vector<SimTime>> kill_schedule(const TestbedConfig& testbed,
                                                SimTime begin, SimTime end) {
  std::vector<std::vector<SimTime>> kills(testbed.machines);
  if (testbed.faults.empty()) return kills;
  const fault::FaultInjector injector(testbed.faults, testbed.seed,
                                      testbed.machines, begin, end);
  for (const auto& ev : injector.events()) {
    if (ev.kind == fault::FaultKind::kGuestKill) {
      kills[ev.machine].push_back(ev.start);
    }
  }
  return kills;  // events() is sorted by (machine, start)
}

/// First kill instant in [t0, t1), or SimTime::max() when none.
SimTime next_kill(const std::vector<SimTime>& kills, SimTime t0, SimTime t1) {
  const auto it = std::lower_bound(kills.begin(), kills.end(), t0);
  if (it == kills.end() || *it >= t1) return SimTime::max();
  return *it;
}

}  // namespace

GuestStudyResult run_guest_study(const TestbedConfig& testbed,
                                 const trace::TraceSet& trace,
                                 const GuestLifecycleConfig& lifecycle) {
  testbed.validate();
  lifecycle.validate();

  const trace::TraceIndex index(trace);
  const SimTime horizon_start = trace.horizon_start();
  const SimTime horizon = trace.horizon_end();
  const auto kills = kill_schedule(testbed, horizon_start, horizon);

  const SimDuration interval = lifecycle.checkpoint_interval;
  const SimDuration cost = lifecycle.checkpoint_cost;
  const SimDuration slot = interval + cost;

  GuestStudyResult result;
  using obs::FlightEventKind;

  const SimTime first_submit =
      horizon_start + SimDuration::days(lifecycle.first_submit_day);
  std::uint64_t job_index = 0;
  for (SimTime submit = first_submit; submit + lifecycle.job_length < horizon;
       submit += lifecycle.submit_spacing, ++job_index) {
    GuestJobOutcome job;
    job.submit = submit;
    job.first_machine =
        static_cast<trace::MachineId>(job_index % testbed.machines);
    job.final_machine = job.first_machine;

    trace::MachineId m = job.first_machine;
    SimTime t = submit;
    SimDuration done = SimDuration::zero();  // checkpointed progress
    std::uint32_t failures = 0;              // consecutive, for backoff
    std::uint64_t draws = 0;                 // jitter draw counter

    while (true) {
      if (t >= horizon) {  // censored before finishing
        job.response = horizon - submit;
        break;
      }
      const SimDuration remaining = lifecycle.job_length - done;
      SimDuration wall = remaining;
      if (interval > SimDuration::zero()) {
        wall += cost * (remaining.as_micros() / interval.as_micros());
      }
      if (t + wall > horizon) {  // a clean run no longer fits
        job.response = horizon - submit;
        break;
      }

      const auto* ep = index.first_overlap(m, t, t + wall);
      if (ep != nullptr && ep->start <= t) {
        // Machine unavailable right now: wait out the episode (not a
        // failed attempt — the job was never started).
        t = ep->end;
        continue;
      }
      const SimTime fail_at = ep != nullptr ? ep->start : SimTime::max();
      const SimTime kill_at = next_kill(kills[m], t, t + wall);
      if (fail_at == SimTime::max() && kill_at == SimTime::max()) {
        job.completed = true;
        job.response = (t + wall) - submit;
        obs::emit(FlightEventKind::kGuestCompleted, t + wall);
        break;
      }

      // The attempt dies at the earlier interruption.
      const bool revoked = fail_at <= kill_at;
      const SimTime died = revoked ? fail_at : kill_at;
      const SimDuration ran = died - t;
      std::int64_t slots = 0;
      if (interval > SimDuration::zero() && slot > SimDuration::zero()) {
        slots = ran.as_micros() / slot.as_micros();
      }
      SimDuration saved = interval * slots;
      if (saved > remaining) saved = remaining;
      done += saved;
      const SimDuration lost = ran - slot * slots;
      job.work_lost += lost;
      job.checkpoints += static_cast<std::uint32_t>(slots);
      job.restarts += 1;
      for (std::int64_t i = 0; i < slots; ++i) {
        obs::emit(FlightEventKind::kGuestCheckpoint, died);
      }
      obs::emit(FlightEventKind::kGuestWorkLost, died, 0, 0, lost);
      obs::emit(FlightEventKind::kGuestRestart, died);

      const SimDuration delay =
          backoff_delay(lifecycle, job_index, failures, draws++);
      failures = slots > 0 ? 0 : failures + 1;

      if (revoked && lifecycle.migrate_on_revocation &&
          testbed.machines > 1) {
        m = static_cast<trace::MachineId>((m + 1) % testbed.machines);
        job.final_machine = m;
        job.migrations += 1;
        obs::emit(FlightEventKind::kGuestMigration, died);
        t = died + delay;
      } else if (revoked) {
        // Restart on the same machine once the episode clears.
        t = ep->end + delay;
      } else {
        // Injected kill: the machine itself is still available.
        t = died + delay;
      }
    }

    result.completed += job.completed ? 1 : 0;
    result.restarts += job.restarts;
    result.migrations += job.migrations;
    result.checkpoints += job.checkpoints;
    result.work_lost += job.work_lost;
    result.jobs.push_back(job);
  }

  std::vector<double> responses;
  responses.reserve(result.jobs.size());
  for (const auto& j : result.jobs) responses.push_back(j.response.as_hours());
  if (!responses.empty()) {
    result.mean_response_hours = stats::mean(responses);
    result.p90_response_hours = stats::quantile(responses, 0.9);
  }
  return result;
}

GuestStudyResult run_guest_study(const TestbedConfig& testbed,
                                 const GuestLifecycleConfig& lifecycle) {
  return run_guest_study(testbed, run_testbed(testbed), lifecycle);
}

std::string GuestStudyResult::summary_table() const {
  util::TextTable table({"Jobs", "Completed", "Restarts", "Migrations",
                         "Checkpoints", "Work lost", "Mean resp", "P90 resp"});
  table.add(std::to_string(jobs.size()), std::to_string(completed),
            std::to_string(restarts), std::to_string(migrations),
            std::to_string(checkpoints),
            util::format_duration_s(work_lost.as_seconds()),
            util::format_duration_s(mean_response_hours * 3600.0),
            util::format_duration_s(p90_response_hours * 3600.0));
  return table.str();
}

}  // namespace fgcs::core
